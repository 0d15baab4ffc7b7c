package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// reservedPorts are the fixed ports of the make bench-* targets; the
// benchmark never listens on them, so both can run on one host.
var reservedPorts = map[int]bool{18090: true, 18095: true, 18096: true, 18097: true}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	for i := 0; i < 16; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, fmt.Errorf("finding a free port: %w", err)
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		if !reservedPorts[port] {
			return port, nil
		}
	}
	return 0, errors.New("finding a free port: only reserved ports offered")
}

// daemon is one dimsatd child process.
type daemon struct {
	name string
	base string
	log  string
	cmd  *exec.Cmd
	done chan struct{}
}

// startDaemon launches dimsatd on a fresh ephemeral port with args
// (which must not set -addr) and waits until GET /readyz answers 200. A
// daemon that dies before it is ready — say another process took the
// port first — is retried on a new port.
func startDaemon(ctx context.Context, bin, name, logPath string, client *http.Client, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		logf, err := os.Create(logPath)
		if err != nil {
			return nil, fmt.Errorf("%s log: %w", name, err)
		}
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = childAttr()
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("starting %s: %w", name, err)
		}
		d := &daemon{name: name, base: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
		go func() {
			cmd.Wait()
			logf.Close()
			close(d.done)
		}()
		if lastErr = d.waitReady(ctx, client); lastErr == nil {
			return d, nil
		}
		d.stop()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// waitReady polls GET /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready:\n%s", d.name, tail(d.log, 20))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 20s:\n%s", d.name, tail(d.log, 20))
		}
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s peak RSS: %w", d.name, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, found := strings.CutPrefix(sc.Text(), "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s peak RSS: %w", d.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s peak RSS: no VmHWM line", d.name)
}

// stop asks the daemon to shut down, kills it if it has not exited
// within five seconds, and returns once it has exited.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// tail returns the last n lines of a log file, for failure messages.
func tail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
