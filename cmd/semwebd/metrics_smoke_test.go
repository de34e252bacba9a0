package main_test

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"semwebdb/internal/obs"
	"semwebdb/internal/proctest"
)

// TestMetricsSmoke is the end-to-end observability smoke test the
// `make metrics-smoke` target runs: build the real binary, start it
// with JSON logs, the pprof endpoints and a slow-query threshold
// enabled, drive load + query traffic, scrape /metrics, and validate
// the exposition and the engine families end to end.
func TestMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "semwebd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building semwebd: %v\n%s", err, out)
	}

	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "art"), 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-root", root,
		"-log", "json", "-log-level", "info", "-pprof", "-slow-query", "1ns", "-drain", "5s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stop := proctest.Stopper(t, cmd)

	var logBuf strings.Builder
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		b, _ := io.ReadAll(stderr)
		logBuf.Write(b)
	}()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	base := "http://" + strings.TrimSpace(line[i+len(marker):])
	go io.Copy(io.Discard, stdout)

	// Drive traffic: a load and a query, so the engine families tick.
	ttl, err := os.ReadFile(filepath.Join("..", "..", "testdata", "art.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/art/load", "text/turtle", strings.NewReader(string(ttl)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d", resp.StatusCode)
	}
	rq, err := os.ReadFile(filepath.Join("..", "..", "testdata", "artists.rq"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/art/query", "text/plain", strings.NewReader(string(rq)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Error("query response has no X-Request-Id")
	}
	resp.Body.Close()

	// Scrape and validate /metrics.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, family := range []string{
		"semweb_query_seconds",
		"semweb_closure_saturations_total",
		"semweb_wal_appends_total",
		"semweb_dict_interns_total",
		"semwebd_http_requests_total",
		"go_goroutines",
	} {
		if !strings.Contains(string(body), "# TYPE "+family+" ") {
			t.Errorf("/metrics is missing family %s", family)
		}
	}

	// pprof was enabled by flag.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/: %d, want 200", resp.StatusCode)
	}

	// Clean shutdown, then check the captured JSON log: one structured
	// request line per request and the slow-query warning with phases.
	if err := stop(); err != nil {
		t.Fatalf("semwebd exited uncleanly: %v", err)
	}
	<-logDone
	log := logBuf.String()
	for _, want := range []string{
		`"msg":"request"`, `"handler":"query"`, `"db":"art"`, `"req":`,
		`"msg":"slow query"`, `"phases":`,
	} {
		if !strings.Contains(log, want) {
			t.Errorf("structured log is missing %s; captured:\n%s", want, log)
		}
	}
}
