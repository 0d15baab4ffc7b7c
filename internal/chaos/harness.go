package chaos

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"olapdim/internal/cluster"
	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/jobs"
	"olapdim/internal/obs"
	"olapdim/internal/server"
)

// node is one dimsatd instance the harness can kill and resurrect: a
// durable job store on a directory that outlives crashes, the real HTTP
// server, and a listener pinned to one address so cluster membership
// (worker URLs on the coordinator's ring) survives a restart.
type node struct {
	idx    int
	dir    string
	addr   string // pinned after the first listen
	inj    *faults.Injector
	schema *core.DimensionSchema
	logf   func(string, ...any)

	store *jobs.Store
	hs    *http.Server
	down  bool
}

// start boots the node: open (and recover) the job store, build the
// server, serve on the pinned address. The first start listens on an
// ephemeral port and pins it.
func (n *node) start() error {
	// One span store per boot, shared by the server and the job store, so
	// a request's spans and its jobs' lifecycle spans land in the same
	// /debug/spans ring. It dies with the process on crash — exactly what
	// a real kill leaves — while the trace *context* survives in the
	// jobs snapshot, so a resumed attempt rejoins its trace.
	spans := obs.NewSpanStore(0, fmt.Sprintf("node%d", n.idx))
	store, err := jobs.Open(jobs.Config{
		Dir:             n.dir,
		Schema:          n.schema,
		Options:         core.Options{Faults: n.inj},
		CheckpointEvery: 1,
		Logf: func(format string, args ...any) {
			n.logf("node%d: "+format, append([]any{n.idx}, args...)...)
		},
		Spans: spans,
	})
	if err != nil {
		return fmt.Errorf("chaos: node%d store: %w", n.idx, err)
	}
	srv, err := server.NewWithConfig(n.schema, server.Config{Jobs: store, Spans: spans})
	if err != nil {
		store.Close()
		return fmt.Errorf("chaos: node%d server: %w", n.idx, err)
	}
	store.Start()
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// A crash frees the port a beat after Close returns; retry briefly so
	// a restart never flaps on a lingering bind.
	var ln net.Listener
	deadline := time.Now().Add(2 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			store.Close()
			return fmt.Errorf("chaos: node%d rebind %s: %w", n.idx, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	n.addr = ln.Addr().String()
	n.store = store
	n.hs = &http.Server{Handler: srv}
	go n.hs.Serve(ln)
	n.down = false
	return nil
}

func (n *node) url() string { return "http://" + n.addr }

// crash kills the node the ungraceful way: the listener and every open
// connection torn down mid-flight, the store abandoned with no suspend
// persistence — the directory holds exactly what the last durable write
// left, like a real kill -9.
func (n *node) crash() {
	if n.down {
		return
	}
	n.hs.Close()
	n.store.Kill()
	n.down = true
	n.logf("chaos: node%d crashed", n.idx)
}

// restart resurrects a crashed node on its pinned address; the store's
// recovery scan re-enqueues interrupted jobs and quarantines any torn
// or corrupt snapshots the crash left behind.
func (n *node) restart() error {
	if !n.down {
		return nil
	}
	if err := n.start(); err != nil {
		return err
	}
	n.logf("chaos: node%d restarted", n.idx)
	return nil
}

// stop is the teardown path: graceful store close so the goroutine-leak
// oracle sees everything exit.
func (n *node) stop() {
	if n.down {
		return
	}
	n.hs.Close()
	n.store.Close()
	n.down = true
}

// diskRule maps a DiskMode to the injector rule an ActDiskFault window
// arms. Frequencies are chosen so a window injects real damage without
// making every single operation fail (torn and flip leave room for the
// interleaved successes that make recovery interesting).
func diskRule(mode DiskMode) faults.Rule {
	switch mode {
	case DiskTorn:
		return faults.Rule{Site: faults.SiteJobsFsync, Kind: faults.Error, Err: faults.ErrTornWrite, Every: 2}
	case DiskFlip:
		return faults.Rule{Site: faults.SiteSnapshotRead, Kind: faults.Corrupt, Every: 3}
	default: // DiskENOSPC
		return faults.Rule{Site: faults.SiteJobsFsync, Kind: faults.Error, Err: faults.ErrNoSpace}
	}
}

// topology is what the scheduler and oracles drive: one client-facing
// base URL backed by either a single node or a coordinator-fronted
// cluster of them.
type topology interface {
	// base is the client entrypoint all workload traffic targets.
	base() string
	// apply actuates ev at the start of its window; revert heals it at
	// the end. Both run on the single scheduler goroutine.
	apply(ev Event)
	revert(ev Event)
	// healAll reverts everything still active: partitions healed, crashed
	// nodes restarted, disk rules disarmed. Called once after the fault
	// phase, before the oracles.
	healAll()
	// converged reports whether the topology is back to full health, with
	// a detail string for the failure report.
	converged() (bool, string)
	// shutdown tears everything down for the goroutine-leak oracle.
	shutdown()
}

// singleTopo is one node addressed directly.
type singleTopo struct {
	n *node
}

func newSingle(schema *core.DimensionSchema, seed int64, dir string, logf func(string, ...any)) (*singleTopo, error) {
	n := &node{idx: 0, dir: dir, inj: faults.NewSeeded(seed), schema: schema, logf: logf}
	if err := n.start(); err != nil {
		return nil, err
	}
	return &singleTopo{n: n}, nil
}

func (t *singleTopo) base() string { return t.n.url() }

func (t *singleTopo) apply(ev Event) {
	switch ev.Kind {
	case ActCrash:
		t.n.crash()
	case ActDiskFault:
		if err := t.n.inj.Arm(diskRule(ev.Mode)); err != nil {
			t.n.logf("chaos: arming %s: %v", ev.Mode, err)
		}
		t.n.logf("chaos: node0 disk fault %s armed", ev.Mode)
	}
}

func (t *singleTopo) revert(ev Event) {
	switch ev.Kind {
	case ActCrash:
		if err := t.n.restart(); err != nil {
			t.n.logf("chaos: %v", err)
		}
	case ActDiskFault:
		t.n.inj.DisarmSite(diskRule(ev.Mode).Site)
		t.n.logf("chaos: node0 disk fault %s disarmed", ev.Mode)
	}
}

func (t *singleTopo) healAll() {
	t.n.inj.DisarmSite(faults.SiteJobsFsync)
	t.n.inj.DisarmSite(faults.SiteSnapshotRead)
	if err := t.n.restart(); err != nil {
		t.n.logf("chaos: healAll: %v", err)
	}
}

func (t *singleTopo) converged() (bool, string) {
	resp, err := http.Get(t.n.url() + "/readyz")
	if err != nil {
		return false, fmt.Sprintf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("readyz = %d", resp.StatusCode)
	}
	return true, ""
}

func (t *singleTopo) shutdown() { t.n.stop() }

// clusterTopo is N worker nodes fronted by a real coordinator whose
// worker traffic flows through a PartitionTransport.
type clusterTopo struct {
	nodes []*node
	coord *cluster.Coordinator
	front *httptest.Server
	pt    *cluster.PartitionTransport
	logf  func(string, ...any)
}

func newCluster(schema *core.DimensionSchema, seed int64, dirs []string, logf func(string, ...any)) (*clusterTopo, error) {
	t := &clusterTopo{logf: logf}
	for i, dir := range dirs {
		n := &node{idx: i, dir: dir, inj: faults.NewSeeded(seed + int64(i)), schema: schema, logf: logf}
		if err := n.start(); err != nil {
			t.shutdown()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	t.pt = cluster.NewPartitionTransport(nil, nil)
	workers := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		workers[i] = n.url()
	}
	coord, err := cluster.New(cluster.Config{
		Workers:       workers,
		Transport:     t.pt,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		PollInterval:  20 * time.Millisecond,
		FailAfter:     2,
		RecoverAfter:  1,
		BaseBackoff:   5 * time.Millisecond,
		HedgeDelay:    25 * time.Millisecond,
		RetryBudget:   256,
		Logf: func(format string, args ...any) {
			logf(format, args...)
		},
	})
	if err != nil {
		t.shutdown()
		return nil, err
	}
	coord.Start()
	t.coord = coord
	t.front = httptest.NewServer(coord)
	return t, nil
}

func (t *clusterTopo) base() string { return t.front.URL }

func (t *clusterTopo) apply(ev Event) {
	n := t.nodes[ev.Node%len(t.nodes)]
	switch ev.Kind {
	case ActPartition:
		t.pt.Block(n.url())
		t.logf("chaos: node%d partitioned", n.idx)
	case ActCrash:
		n.crash()
	case ActDiskFault:
		if err := n.inj.Arm(diskRule(ev.Mode)); err != nil {
			t.logf("chaos: arming %s: %v", ev.Mode, err)
		}
		t.logf("chaos: node%d disk fault %s armed", n.idx, ev.Mode)
	}
}

func (t *clusterTopo) revert(ev Event) {
	n := t.nodes[ev.Node%len(t.nodes)]
	switch ev.Kind {
	case ActPartition:
		t.pt.Unblock(n.url())
		t.logf("chaos: node%d partition healed", n.idx)
	case ActCrash:
		if err := n.restart(); err != nil {
			t.logf("chaos: %v", err)
		}
	case ActDiskFault:
		n.inj.DisarmSite(diskRule(ev.Mode).Site)
		t.logf("chaos: node%d disk fault %s disarmed", n.idx, ev.Mode)
	}
}

func (t *clusterTopo) healAll() {
	t.pt.HealAll()
	for _, n := range t.nodes {
		n.inj.DisarmSite(faults.SiteJobsFsync)
		n.inj.DisarmSite(faults.SiteSnapshotRead)
		if err := n.restart(); err != nil {
			t.logf("chaos: healAll: %v", err)
		}
	}
}

func (t *clusterTopo) converged() (bool, string) {
	view := t.coord.StatusView()
	if view.Healthy != len(t.nodes) {
		return false, fmt.Sprintf("healthy = %d of %d", view.Healthy, len(t.nodes))
	}
	return true, ""
}

func (t *clusterTopo) shutdown() {
	if t.front != nil {
		t.front.Close()
	}
	if t.coord != nil {
		t.coord.Close()
	}
	for _, n := range t.nodes {
		n.stop()
	}
}
