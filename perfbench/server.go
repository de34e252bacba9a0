package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupDB is the database every workload sets up; the blank workload
// adds one database per cycle beside it.
const setupDB = "b"

// server is one running semwebd process serving the subdirectories of
// root as databases.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	root    string
	log     *os.File
	drained chan struct{} // closed when stdout hits EOF

	stopOnce sync.Once
	stopErr  error
}

// startServer launches semwebd on a free loopback port over root,
// whose subdirectory setupDB it creates if missing, and returns once
// the process has announced its listening address.
func startServer(bin, root string) (*server, error) {
	if err := os.MkdirAll(filepath.Join(root, setupDB), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(root, "semwebd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-root", root, "-quiet")
	// Should the benchmark itself be killed, the kernel kills semwebd too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start semwebd: %w", err)
	}
	s := &server{cmd: cmd, root: root, log: logf, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "semwebd: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.drained:
		_ = s.stop()
		return nil, errors.New("semwebd exited before listening (see its log in the run directory)")
	case <-time.After(60 * time.Second):
		_ = s.stop()
		return nil, errors.New("semwebd did not announce its address within 60s")
	}
}

// interrupt sends SIGINT, semwebd's graceful shutdown.
func (s *server) interrupt() error { return s.cmd.Process.Signal(os.Interrupt) }

// wait waits for the process to exit after interrupt, killing it if
// it has not drained within a minute.
func (s *server) wait() error {
	done := make(chan error, 1)
	go func() {
		<-s.drained
		done <- s.cmd.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("semwebd did not exit within 60s of SIGINT")
		}
	}
	s.log.Close()
	return err
}

// stop interrupts the process and waits for it to exit. Later calls
// return the first call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		if err := s.interrupt(); err != nil && !errors.Is(err, os.ErrProcessDone) {
			_ = s.cmd.Process.Kill()
		}
		s.stopErr = s.wait()
	})
	return s.stopErr
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the process's CPU time so far, user plus system
// over all its threads, from /proc/<pid>/stat. Unlike wall time it
// leaves out the time the process waited for a CPU, including time
// the hypervisor stole, so it measures the program's work however
// busy the host is.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the command name's closing parenthesis start at
	// field 3 (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat: %q", b)
	}
	var ticks float64
	for _, v := range f[11:13] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return ticks / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc's CPU times: 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// diskBytes sums the sizes of the database directories' files.
func (s *server) diskBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Dir(path) == s.root {
			return err // files directly under root are logs, not data
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// conn is one client connection: an HTTP client whose transport keeps
// exactly one keep-alive connection to the server.
type conn struct{ c *http.Client }

func newConn() *conn {
	return &conn{c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

func (c *conn) post(url, ctype, body string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	return c.c.Do(req)
}

// load posts a load and returns the number of triples it added.
func (c *conn) load(base string, o op) (int, error) {
	ctype := "application/n-triples"
	if o.turtle {
		ctype = "text/turtle"
	}
	resp, err := c.post(base+"/v1/"+o.target()+"/load", ctype, o.body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("load: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var res struct {
		Added int `json:"added"`
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return 0, fmt.Errorf("load: decode %q: %w", b, err)
	}
	return res.Added, nil
}

// snapshot checkpoints the database.
func (c *conn) snapshot(base string) error {
	resp, err := c.post(base+"/v1/"+setupDB+"/snapshot", "", "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return nil
}

// answer is a streamed query answer as the client saw it.
type answer struct {
	keys     []string      // each row's bindings of the checked variables, sorted
	firstRow time.Duration // from send to the first row line (or the trailer)
}

// query posts a tableau query and reads the whole NDJSON stream. The
// rows' bindings of vars become the answer's keys.
func (c *conn) query(base string, o op) (answer, error) {
	var a answer
	t0 := time.Now()
	resp, err := c.post(base+"/v1/"+o.target()+"/query", "", o.body)
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return a, fmt.Errorf("query: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	vals := make([]string, len(o.vars))
	for {
		line, err := br.ReadBytes('\n')
		if len(line) == 0 && err != nil {
			return a, fmt.Errorf("query: stream ended without a trailer: %w", err)
		}
		if a.firstRow == 0 {
			a.firstRow = time.Since(t0)
		}
		if bytes.HasPrefix(line, []byte(`{"done":`)) {
			var tr struct {
				Rows  int    `json:"rows"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(line, &tr); err != nil {
				return a, fmt.Errorf("query: decode trailer: %w", err)
			}
			if tr.Error != "" {
				return a, fmt.Errorf("query: stream error: %s", tr.Error)
			}
			if tr.Rows != len(a.keys) {
				return a, fmt.Errorf("query: trailer counts %d rows, stream had %d", tr.Rows, len(a.keys))
			}
			break
		}
		// Decode only the row's bindings object, so that the client's
		// share of the machine stays small on large scans.
		i := bytes.Index(line, []byte(`"bindings":`))
		if i < 0 {
			return a, fmt.Errorf("query: row without bindings: %s", line)
		}
		var bindings map[string]string
		if err := json.NewDecoder(bytes.NewReader(line[i+len(`"bindings":`):])).Decode(&bindings); err != nil {
			return a, fmt.Errorf("query: decode row: %w", err)
		}
		for i, v := range o.vars {
			vals[i] = bindings[v]
		}
		a.keys = append(a.keys, strings.Join(vals, " "))
	}
	sort.Strings(a.keys)
	return a, nil
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (c *conn) scrape(base string) (map[string]float64, error) {
	resp, err := c.c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// checkAnswer compares a served answer with the oracle's.
func checkAnswer(o op, keys []string) error {
	if len(keys) != len(o.rows) {
		return fmt.Errorf("%s answer has %d rows, oracle expects %d", o.kind, len(keys), len(o.rows))
	}
	for i := range keys {
		if keys[i] != o.rows[i] {
			return fmt.Errorf("%s answer row %q differs from oracle row %q", o.kind, keys[i], o.rows[i])
		}
	}
	return nil
}
