package main_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semwebdb/internal/proctest"
)

// startSemwebd launches the built binary with args, parses the
// "listening on" announcement, and returns the base URL plus a stopper
// that SIGINTs the process and requires a clean exit. The same stop
// runs from t.Cleanup (SIGINT, a bounded wait, then Kill and Wait) on
// every other path out of the test.
func startSemwebd(t *testing.T, bin string, args ...string) (base string, stop func()) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stopProc := proctest.Stopper(t, cmd)

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line from %v: %v", args, sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	go io.Copy(io.Discard, stdout)

	return "http://" + strings.TrimSpace(line[i+len(marker):]), func() {
		if err := stopProc(); err != nil {
			t.Fatalf("semwebd %v exited uncleanly: %v", args, err)
		}
	}
}

// TestReplSmoke is the end-to-end replication smoke test the
// `make repl-smoke` target runs: build the real binary, start a leader
// and a -follow replica as separate processes, load through the leader,
// watch the data arrive and answer queries on the replica, check the
// replica refuses writes, then SIGINT both and require clean exits.
func TestReplSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary smoke test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "semwebd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building semwebd: %v\n%s", err, out)
	}

	leaderRoot, replicaRoot := t.TempDir(), t.TempDir()
	for _, root := range []string{leaderRoot, replicaRoot} {
		if err := os.Mkdir(filepath.Join(root, "art"), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	leaderBase, stopLeader := startSemwebd(t, bin, "-addr", "127.0.0.1:0", "-root", leaderRoot, "-drain", "5s")
	replicaBase, stopReplica := startSemwebd(t, bin, "-addr", "127.0.0.1:0", "-root", replicaRoot,
		"-follow", leaderBase, "-drain", "5s")

	// Load the repository's Turtle test data through the leader.
	ttl, err := os.ReadFile(filepath.Join("..", "..", "testdata", "art.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(leaderBase+"/v1/art/load", "text/turtle", strings.NewReader(string(ttl)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader load: %d %s", resp.StatusCode, body)
	}

	// Wait for the replica to mirror the leader's full log.
	type replState struct {
		Replica          bool   `json:"replica"`
		Generation       uint64 `json:"generation"`
		LeaderGeneration uint64 `json:"leader_generation"`
		WALSize          int64  `json:"wal_size"`
		AppliedBytes     int64  `json:"applied_bytes"`
		LagBytes         int64  `json:"lag_bytes"`
	}
	fetchState := func(base string) replState {
		t.Helper()
		resp, err := http.Get(base + "/v1/art/repl/state")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st replState
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ls, rs := fetchState(leaderBase), fetchState(replicaBase)
		if rs.Replica && rs.LeaderGeneration == ls.Generation && rs.AppliedBytes == ls.WALSize {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: leader %+v, replica %+v", ls, rs)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The bundled query answers identically on both sides.
	rq, err := os.ReadFile(filepath.Join("..", "..", "testdata", "artists.rq"))
	if err != nil {
		t.Fatal(err)
	}
	countRows := func(base string) int {
		t.Helper()
		resp, err := http.Post(base+"/v1/art/query", "text/plain", strings.NewReader(string(rq)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query on %s: %d", base, resp.StatusCode)
		}
		rows := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var probe struct {
				Done  bool   `json:"done"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if probe.Done {
				if probe.Error != "" {
					t.Fatalf("stream error on %s: %s", base, probe.Error)
				}
				return rows
			}
			rows++
		}
		t.Fatalf("stream on %s ended without a trailer", base)
		return 0
	}
	leaderRows, replicaRows := countRows(leaderBase), countRows(replicaBase)
	if leaderRows == 0 || leaderRows != replicaRows {
		t.Fatalf("leader answered %d rows, replica %d", leaderRows, replicaRows)
	}

	// The replica's write surface answers 503.
	resp, err = http.Post(replicaBase+"/v1/art/load", "application/n-triples",
		strings.NewReader("<urn:s> <urn:p> <urn:o> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replica load: %d, want 503", resp.StatusCode)
	}

	// Replication lag is visible on the metrics endpoint.
	resp, err = http.Get(replicaBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `semwebd_repl_lag_bytes{db="art"}`) {
		t.Fatalf("metrics lack the replication lag gauge:\n%s", firstLines(string(metrics), 20))
	}

	// Both sides shut down cleanly: replica first (so its tail loop
	// dies against a live leader), then the leader.
	stopReplica()
	stopLeader()
}

// firstLines truncates s for a readable failure message.
func firstLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return fmt.Sprint(strings.Join(lines, "\n"))
}
