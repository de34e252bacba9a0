package semwebdb_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"semwebdb/internal/proctest"
)

// buildTools compiles the command-line binaries once per test run.
var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func tools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "semwebdb-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"rdfcheck", "rdfnorm", "rdfquery", "experiments", "benchjson", "semwebd"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			var out bytes.Buffer
			cmd.Stderr = &out
			if err := cmd.Run(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out.String())
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

func run(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(tools(t), name), args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return out.String(), code
}

func TestRdfcheckEntailment(t *testing.T) {
	out, code := run(t, "rdfcheck", "-op", "entails", "testdata/art.ttl", "testdata/consequence.nt")
	if code != 0 {
		t.Fatalf("entailment should hold (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("output: %s", out)
	}
	// Reverse direction must fail with exit 1.
	_, code = run(t, "rdfcheck", "-op", "entails", "testdata/consequence.nt", "testdata/art.ttl")
	if code != 1 {
		t.Fatalf("reverse entailment exit = %d, want 1", code)
	}
}

func TestRdfcheckProof(t *testing.T) {
	out, code := run(t, "rdfcheck", "-op", "entails", "-proof", "testdata/art.ttl", "testdata/consequence.nt")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "step proof") && !strings.Contains(out, "-step proof") {
		t.Fatalf("proof output missing:\n%s", out)
	}
	if !strings.Contains(out, "rule(") {
		t.Fatalf("no rule lines in proof:\n%s", out)
	}
}

func TestRdfcheckLeanAndIso(t *testing.T) {
	out, code := run(t, "rdfcheck", "-op", "lean", "testdata/nonlean.nt")
	if code != 1 || !strings.Contains(out, "false") {
		t.Fatalf("nonlean.nt reported lean (exit %d):\n%s", code, out)
	}
	_, code = run(t, "rdfcheck", "-op", "iso", "testdata/nonlean.nt", "testdata/nonlean.nt")
	if code != 0 {
		t.Fatalf("self-isomorphism exit = %d", code)
	}
	out, code = run(t, "rdfcheck", "-op", "simple", "testdata/art.ttl")
	if code != 1 || !strings.Contains(out, "false") {
		t.Fatalf("schema graph reported simple (exit %d): %s", code, out)
	}
}

func TestRdfcheckBadUsage(t *testing.T) {
	_, code := run(t, "rdfcheck", "-op", "entails", "testdata/art.ttl")
	if code != 2 {
		t.Fatalf("missing-argument exit = %d, want 2", code)
	}
	_, code = run(t, "rdfcheck", "-op", "bogus", "testdata/art.ttl")
	if code != 2 {
		t.Fatalf("unknown-op exit = %d, want 2", code)
	}
	_, code = run(t, "rdfcheck", "-op", "lean", "testdata/does-not-exist.nt")
	if code != 2 {
		t.Fatalf("missing-file exit = %d, want 2", code)
	}
}

func TestRdfcheckSnapshotRestore(t *testing.T) {
	dbdir := filepath.Join(t.TempDir(), "db")
	out, code := run(t, "rdfcheck", "-op", "snapshot", "testdata/art.ttl", dbdir)
	if code != 0 {
		t.Fatalf("snapshot exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "snapshotted") {
		t.Fatalf("snapshot output:\n%s", out)
	}
	restored, code := run(t, "rdfcheck", "-op", "restore", dbdir)
	if code != 0 {
		t.Fatalf("restore exit %d:\n%s", code, restored)
	}
	// The restored dump must be isomorphic to the original file: feed
	// it back through rdfcheck -op iso.
	dump := filepath.Join(t.TempDir(), "restored.nt")
	if err := os.WriteFile(dump, []byte(restored), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, code := run(t, "rdfcheck", "-op", "iso", dump, "testdata/art.ttl"); code != 0 {
		t.Fatalf("restored dump not isomorphic to source (exit %d)", code)
	}
	// stats on a database directory reports the on-disk footprint.
	out, code = run(t, "rdfcheck", "-op", "stats", dbdir)
	if code != 0 || !strings.Contains(out, "snapshot:") || !strings.Contains(out, "wal:") {
		t.Fatalf("dir stats (exit %d):\n%s", code, out)
	}
	// restore on a path with no database must fail, not conjure an
	// empty one (a typoed directory would otherwise be created and
	// dumped as empty with exit 0).
	missing := filepath.Join(t.TempDir(), "no-such-db")
	if err := os.MkdirAll(missing, 0o755); err != nil {
		t.Fatal(err)
	}
	out, code = run(t, "rdfcheck", "-op", "restore", missing)
	if code != 2 || !strings.Contains(out, "not a database directory") {
		t.Fatalf("restore of non-database (exit %d):\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(missing, "wal.swdb")); !os.IsNotExist(err) {
		t.Fatal("failed restore created database files")
	}
}

func TestRdfcheckCompact(t *testing.T) {
	dbdir := filepath.Join(t.TempDir(), "db")
	if out, code := run(t, "rdfcheck", "-op", "snapshot", "testdata/art.ttl", dbdir); code != 0 {
		t.Fatalf("snapshot exit %d:\n%s", code, out)
	}
	out, code := run(t, "rdfcheck", "-op", "compact", dbdir)
	if code != 0 {
		t.Fatalf("compact exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "dict terms:") || !strings.Contains(out, "snapshot:") {
		t.Fatalf("compact output:\n%s", out)
	}
	// The compacted directory still restores to an isomorphic graph.
	restored, code := run(t, "rdfcheck", "-op", "restore", dbdir)
	if code != 0 {
		t.Fatalf("restore after compact exit %d:\n%s", code, restored)
	}
	dump := filepath.Join(t.TempDir(), "restored.nt")
	if err := os.WriteFile(dump, []byte(restored), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, code := run(t, "rdfcheck", "-op", "iso", dump, "testdata/art.ttl"); code != 0 {
		t.Fatalf("post-compact dump not isomorphic to source (exit %d)", code)
	}
	// compact must refuse a directory that holds no database.
	missing := filepath.Join(t.TempDir(), "no-such-db")
	if err := os.MkdirAll(missing, 0o755); err != nil {
		t.Fatal(err)
	}
	out, code = run(t, "rdfcheck", "-op", "compact", missing)
	if code != 2 || !strings.Contains(out, "not a database directory") {
		t.Fatalf("compact of non-database (exit %d):\n%s", code, out)
	}
}

func TestBenchjsonCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ns, allocs float64) string {
		path := filepath.Join(dir, name)
		doc := fmt.Sprintf(`{"context":{},"benchmarks":{
			"BenchmarkA":{"iterations":10,"ns_per_op":%f,"allocs_per_op":%f},
			"BenchmarkTiny":{"iterations":10,"ns_per_op":50,"allocs_per_op":2}}}`, ns, allocs)
		if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", 100000, 1000)

	// Within threshold: clean exit.
	ok := write("ok.json", 110000, 1100)
	out, code := run(t, "benchjson", "-compare", old, ok)
	if code != 0 {
		t.Fatalf("clean compare exit %d:\n%s", code, out)
	}
	// >30% ns/op regression: exit 1 and a REGRESSION line.
	slow := write("slow.json", 140000, 1000)
	out, code = run(t, "benchjson", "-compare", old, slow)
	if code != 1 || !strings.Contains(out, "REGRESSION BenchmarkA") {
		t.Fatalf("regression compare exit %d:\n%s", code, out)
	}
	// -allocs-only ignores the (machine-dependent) ns/op regression…
	out, code = run(t, "benchjson", "-compare", "-allocs-only", old, slow)
	if code != 0 {
		t.Fatalf("allocs-only compare exit %d:\n%s", code, out)
	}
	// …but still catches allocation growth.
	leaky := write("leaky.json", 100000, 1500)
	out, code = run(t, "benchjson", "-compare", "-allocs-only", old, leaky)
	if code != 1 || !strings.Contains(out, "allocs/op") {
		t.Fatalf("allocs-only regression exit %d:\n%s", code, out)
	}
	// Benchmarks under the noise floor never trip the gate (BenchmarkTiny
	// is identical here, but a tiny-regression variant must also pass).
	tiny := filepath.Join(dir, "tiny.json")
	doc := `{"context":{},"benchmarks":{
		"BenchmarkA":{"iterations":10,"ns_per_op":100000,"allocs_per_op":1000},
		"BenchmarkTiny":{"iterations":10,"ns_per_op":500,"allocs_per_op":2}}}`
	if err := os.WriteFile(tiny, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	out, code = run(t, "benchjson", "-compare", old, tiny)
	if code != 0 {
		t.Fatalf("noise-floor compare exit %d:\n%s", code, out)
	}
}

func TestRdfnorm(t *testing.T) {
	out, code := run(t, "rdfnorm", "-to", "closure", "testdata/art.ttl")
	if code != 0 {
		t.Fatalf("closure exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "<urn:art:picasso> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:art:artist>") {
		t.Fatalf("closure missing derived type:\n%s", out)
	}
	out, code = run(t, "rdfnorm", "-to", "core", "testdata/nonlean.nt")
	if code != 0 {
		t.Fatalf("core exit %d", code)
	}
	if strings.Contains(out, "_:") {
		t.Fatalf("core kept the redundant blank:\n%s", out)
	}
	out, code = run(t, "rdfnorm", "-to", "nf", "-stats", "testdata/art.ttl")
	if code != 0 || !strings.Contains(out, "triples") {
		t.Fatalf("nf stats: exit %d\n%s", code, out)
	}
	out, code = run(t, "rdfnorm", "-to", "minimal", "testdata/art.ttl")
	if code != 0 {
		t.Fatalf("minimal exit %d:\n%s", code, out)
	}
}

func TestRdfquery(t *testing.T) {
	out, code := run(t, "rdfquery", "testdata/artists.rq", "testdata/art.ttl")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "<urn:art:picasso> <urn:art:isArtist> <urn:art:yes>") {
		t.Fatalf("inferred artist missing:\n%s", out)
	}
	out, code = run(t, "rdfquery", "-stats", "testdata/artists.rq", "testdata/art.ttl")
	if code != 0 || !strings.Contains(out, "single answers") {
		t.Fatalf("stats output:\n%s", out)
	}
	out, code = run(t, "rdfquery", "-sem", "merge", "testdata/artists.rq", "testdata/art.ttl")
	if code != 0 {
		t.Fatalf("merge exit %d:\n%s", code, out)
	}
}

// TestRdfcheckStatsJSON checks the machine-readable stats encoding — the
// same JSON semwebd serves on GET /v1/{db}/stats.
func TestRdfcheckStatsJSON(t *testing.T) {
	out, code := run(t, "rdfcheck", "-op", "stats", "-json", "testdata/art.ttl")
	if code != 0 {
		t.Fatalf("stats -json exit %d:\n%s", code, out)
	}
	var st struct {
		Triples    int    `json:"triples"`
		Terms      int    `json:"terms"`
		IndexSizes [3]int `json:"index_sizes"`
		Persistent bool   `json:"persistent"`
	}
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("stats -json output is not JSON: %v\n%s", err, out)
	}
	if st.Triples == 0 || st.Terms == 0 || st.IndexSizes[0] != st.Triples || st.Persistent {
		t.Fatalf("implausible stats: %+v", st)
	}

	// Against a database directory, the on-disk fields appear too.
	dbdir := filepath.Join(t.TempDir(), "db")
	if out, code := run(t, "rdfcheck", "-op", "snapshot", "testdata/art.ttl", dbdir); code != 0 {
		t.Fatalf("snapshot exit %d:\n%s", code, out)
	}
	out, code = run(t, "rdfcheck", "-op", "stats", "-json", dbdir)
	if code != 0 || !strings.Contains(out, `"snapshot_bytes"`) || !strings.Contains(out, `"persistent":true`) {
		t.Fatalf("dir stats -json (exit %d):\n%s", code, out)
	}
}

// serve starts semwebd on root and returns its listen address. The
// server is stopped from t.Cleanup (SIGINT, a bounded wait, then Kill
// and Wait), so no path out of the test leaves it running.
func serve(t *testing.T, root string) string {
	t.Helper()
	srv := exec.Command(filepath.Join(tools(t), "semwebd"), "-addr", "127.0.0.1:0", "-root", root, "-quiet")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	proctest.Stopper(t, srv)
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no semwebd startup line: %v", sc.Err())
	}
	const marker = "listening on "
	line := sc.Text()
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	go io.Copy(io.Discard, stdout)
	return strings.TrimSpace(line[i+len(marker):])
}

// TestRdfqueryRemote drives the rdfquery client mode against a real
// semwebd: rows arrive on stdout as NDJSON, -stats summarizes the
// trailer instead.
func TestRdfqueryRemote(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "art"), 0o755); err != nil {
		t.Fatal(err)
	}
	addr := serve(t, root)

	ttl, err := os.ReadFile("testdata/art.ttl")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/art/load", "text/turtle", bytes.NewReader(ttl))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d", resp.StatusCode)
	}

	out, code := run(t, "rdfquery", "-addr", addr, "-db", "art", "testdata/artists.rq")
	if code != 0 {
		t.Fatalf("remote query exit %d:\n%s", code, out)
	}
	gotRow := false
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var row struct {
			Triples []string `json:"triples"`
			Done    bool     `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("stdout line is not NDJSON: %q (%v)", line, err)
		}
		if row.Done {
			t.Fatalf("trailer leaked to stdout: %q", line)
		}
		if len(row.Triples) > 0 && strings.Contains(row.Triples[0], "urn:art:isArtist") {
			gotRow = true
		}
	}
	if !gotRow {
		t.Fatalf("no isArtist row in remote output:\n%s", out)
	}

	out, code = run(t, "rdfquery", "-addr", addr, "-db", "art", "-stats", "testdata/artists.rq")
	if code != 0 || !strings.Contains(out, "rows: 2") || !strings.Contains(out, "truncated: false") {
		t.Fatalf("remote -stats (exit %d):\n%s", code, out)
	}

	// Unknown database: clean failure, exit 2.
	out, code = run(t, "rdfquery", "-addr", addr, "-db", "nosuch", "testdata/artists.rq")
	if code != 2 || !strings.Contains(out, "unknown database") {
		t.Fatalf("unknown-db exit %d:\n%s", code, out)
	}
}

func TestExperimentsCLI(t *testing.T) {
	out, code := run(t, "experiments", "-list")
	if code != 0 || !strings.Contains(out, "E15") {
		t.Fatalf("list output:\n%s", out)
	}
	out, code = run(t, "experiments", "-quick", "-run", "E6,E15")
	if code != 0 {
		t.Fatalf("run exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "E6") || !strings.Contains(out, "E15") {
		t.Fatalf("experiment output:\n%s", out)
	}
	_, code = run(t, "experiments", "-run", "E999")
	if code != 2 {
		t.Fatalf("unknown experiment exit = %d, want 2", code)
	}
}

func TestRdfnormFingerprint(t *testing.T) {
	// Equivalent inputs produce identical fingerprints.
	fpA, code := run(t, "rdfnorm", "-fingerprint", "testdata/art.ttl")
	if code != 0 {
		t.Fatalf("fingerprint exit %d", code)
	}
	// A redundant variant of the same graph: append an entailed triple.
	variant := filepath.Join(t.TempDir(), "variant.nt")
	closure, _ := run(t, "rdfnorm", "-to", "closure", "testdata/art.ttl")
	if err := os.WriteFile(variant, []byte(closure), 0o600); err != nil {
		t.Fatal(err)
	}
	fpB, code := run(t, "rdfnorm", "-fingerprint", variant)
	if code != 0 {
		t.Fatalf("fingerprint exit %d", code)
	}
	if fpA != fpB {
		t.Fatalf("equivalent graphs have different fingerprints:\n%s\nvs\n%s", fpA, fpB)
	}
	fpC, _ := run(t, "rdfnorm", "-fingerprint", "testdata/nonlean.nt")
	if fpA == fpC {
		t.Fatal("different graphs share a fingerprint")
	}
	// -to canon round-trips as parseable N-Triples.
	out, code := run(t, "rdfnorm", "-to", "canon", "testdata/nonlean.nt")
	if code != 0 || !strings.Contains(out, "_:c0") {
		t.Fatalf("canon output:\n%s", out)
	}
}

// TestRdfcheckReplStatus drives rdfcheck's one network operation
// against a real semwebd: human and -json renderings of the
// /v1/{db}/repl/state answer, plus the unknown-database failure.
func TestRdfcheckReplStatus(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "art"), 0o755); err != nil {
		t.Fatal(err)
	}
	addr := serve(t, root)

	resp, err := http.Post("http://"+addr+"/v1/art/load", "application/n-triples",
		strings.NewReader("<urn:s> <urn:p> <urn:o> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d", resp.StatusCode)
	}

	out, code := run(t, "rdfcheck", "-op", "repl-status", "-addr", addr, "-db", "art")
	if code != 0 || !strings.Contains(out, "replica:    false") || !strings.Contains(out, "generation:") {
		t.Fatalf("repl-status (exit %d):\n%s", code, out)
	}

	out, code = run(t, "rdfcheck", "-op", "repl-status", "-addr", addr, "-db", "art", "-json")
	if code != 0 {
		t.Fatalf("repl-status -json exit %d:\n%s", code, out)
	}
	var st struct {
		Replica    bool   `json:"replica"`
		Generation uint64 `json:"generation"`
		WALSize    int64  `json:"wal_size"`
		WALRecords int    `json:"wal_records"`
	}
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("repl-status -json is not JSON: %v\n%s", err, out)
	}
	if st.Replica || st.Generation == 0 || st.WALRecords == 0 || st.WALSize == 0 {
		t.Fatalf("implausible repl state: %+v", st)
	}

	// Unknown database: clean failure, exit 2.
	out, code = run(t, "rdfcheck", "-op", "repl-status", "-addr", addr, "-db", "nosuch")
	if code != 2 || !strings.Contains(out, "unknown database") {
		t.Fatalf("unknown-db exit %d:\n%s", code, out)
	}
}
