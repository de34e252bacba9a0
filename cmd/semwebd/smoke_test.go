package main_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"semwebdb/internal/proctest"
)

// TestServeSmoke is the end-to-end smoke test the `make serve-smoke`
// target runs: build the real binary, start it on an ephemeral port
// over a fresh database directory, drive the full lifecycle over HTTP
// (load the repository's test data, stream a query, hit the admin
// endpoints), then shut it down with SIGINT and require a clean exit.
func TestServeSmoke(t *testing.T) {
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
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-root", root, "-drain", "5s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stop := proctest.Stopper(t, cmd)

	// The first stdout line announces the resolved listen address.
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
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	// Load the repository's Turtle test data.
	ttl, err := os.ReadFile(filepath.Join("..", "..", "testdata", "art.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/art/load", "text/turtle", strings.NewReader(string(ttl)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp.StatusCode, body)
	}

	// Stream the bundled query and check the NDJSON framing.
	rq, err := os.ReadFile(filepath.Join("..", "..", "testdata", "artists.rq"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/art/query", "text/plain", strings.NewReader(string(rq)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d", resp.StatusCode)
	}
	rows, sawTrailer := 0, false
	qsc := bufio.NewScanner(resp.Body)
	for qsc.Scan() {
		var probe struct {
			Done    bool     `json:"done"`
			Error   string   `json:"error"`
			Triples []string `json:"triples"`
		}
		if err := json.Unmarshal(qsc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", qsc.Text(), err)
		}
		if probe.Done {
			sawTrailer = true
			if probe.Error != "" {
				t.Fatalf("stream error: %s", probe.Error)
			}
			break
		}
		if len(probe.Triples) == 0 {
			t.Fatalf("row without triples: %q", qsc.Text())
		}
		rows++
	}
	resp.Body.Close()
	if !sawTrailer || rows == 0 {
		t.Fatalf("stream delivered %d rows, trailer=%v", rows, sawTrailer)
	}

	// Admin endpoints: stats, snapshot, compact.
	for _, probe := range []struct{ method, path, want string }{
		{"GET", "/v1/art/stats", `"triples"`},
		{"POST", "/v1/art/snapshot", `"snapshot_bytes"`},
		{"POST", "/v1/art/compact", `"after"`},
		{"GET", "/v1/dbs", `"art"`},
	} {
		req, err := http.NewRequest(probe.method, base+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), probe.want) {
			t.Fatalf("%s %s: %d %s", probe.method, probe.path, resp.StatusCode, body)
		}
	}

	// SIGINT must drain and exit 0.
	if err := stop(); err != nil {
		t.Fatalf("semwebd exited uncleanly: %v", err)
	}

	// The directory must reopen cleanly after shutdown (the flock was
	// released, the WAL/snapshot pair is consistent).
	restart := exec.Command(bin, "-addr", "127.0.0.1:0", "-root", root, "-quiet")
	out2, err := restart.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := restart.Start(); err != nil {
		t.Fatal(err)
	}
	stopRestart := proctest.Stopper(t, restart)
	sc2 := bufio.NewScanner(out2)
	if !sc2.Scan() || !strings.Contains(sc2.Text(), marker) {
		t.Fatalf("restart failed: %q %v", sc2.Text(), sc2.Err())
	}
	base2 := "http://" + strings.TrimSpace(sc2.Text()[strings.Index(sc2.Text(), marker)+len(marker):])
	resp, err = http.Get(base2 + "/v1/art/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.Contains(string(body), `"triples":0`) {
		t.Fatalf("restarted stats: %d %s", resp.StatusCode, body)
	}
	if err := stopRestart(); err != nil {
		t.Fatalf("restarted semwebd exited uncleanly: %v", err)
	}
}
