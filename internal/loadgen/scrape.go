package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// ParseMetrics reads a Prometheus text exposition (version 0.0.4) and
// returns one value per family name: series of a labeled family are
// summed, histogram _bucket series are dropped (the _sum/_count series
// carry the family's totals), and unparsable lines are skipped. Label
// values never survive: perfbench reads family totals, not series.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				continue
			}
			rest = strings.TrimSpace(line[j+1:])
		} else if i := strings.IndexAny(line, " \t"); i >= 0 {
			name = line[:i]
			rest = strings.TrimSpace(line[i:])
		} else {
			continue
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		// The value is the first field after the series; an optional
		// timestamp may follow.
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: reading metrics: %w", err)
	}
	return out, nil
}

// Scrape fetches and parses the target's GET /metrics.
func Scrape(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: scraping %s/metrics: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scraping %s/metrics: status %d", base, resp.StatusCode)
	}
	return ParseMetrics(resp.Body)
}
