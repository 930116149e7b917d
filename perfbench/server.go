package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one started server process (geleed, or this binary hosting
// the traced stack) listening on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// live tracks every started server so a signal can stop them all.
var live struct {
	sync.Mutex
	m map[*server]bool
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs bin with args plus -addr and returns once the
// process runs; logs go to logPath.
func startServer(bin string, args []string, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(slices.Clone(args), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with this process even if it is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	live.Lock()
	if live.m == nil {
		live.m = make(map[*server]bool)
	}
	live.m[s] = true
	live.Unlock()
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// kill stops the process with SIGKILL — a crash, as far as the data
// directory can tell — and waits until it has exited.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited; done still closes
	<-s.done
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

// killAll stops every server still running.
func killAll() {
	live.Lock()
	all := make([]*server, 0, len(live.m))
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// waitReady polls until the server answers ping and reports the whole
// population in its runtime stats, and returns how long that took from
// started.
func (s *server) waitReady(started time.Time, population int) (time.Duration, error) {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := started.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return 0, fmt.Errorf("server exited during start: %v", s.err)
		default:
		}
		resp, err := hc.Get(s.base + "/api/v1/ping")
		if err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drain for reuse; the status decides
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("ping: status %d", resp.StatusCode)
		}
		var st struct {
			Instances int `json:"instances"`
		}
		if err := getJSON(hc, s.base+"/api/v1/admin/runtime", &st); err != nil {
			return 0, err
		}
		if st.Instances != population {
			return 0, fmt.Errorf("runtime reports %d instances after start, want %d", st.Instances, population)
		}
		return time.Since(started), nil
	}
	return 0, errors.New("server not ready within 120s")
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuTime reads the process's user+system CPU time.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14 and stime 15 (1-based, man 5 proc).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// rssBytes reads the process's resident set size (VmRSS).
func (s *server) rssBytes() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) { // removed by a concurrent fold
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of the tree src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// settings are the configuration values a server reports on its admin
// endpoints, by name ("store.shards", "health.admission.watermark").
// The traced host builds its options by hand, so its settings are
// compared with the real geleed's before its figures are used. The
// segment size, the scrub interval and the probe interval are not
// reported by any endpoint and cannot be compared.
type settings map[string]string

// settingPaths name, per admin endpoint, the reported values that are
// settings rather than counters.
var settingPaths = []struct{ endpoint, path string }{
	{"store", "shards"},
	{"store", "engine.engine"},
	{"store", "engine.integrity.framing"},
	{"store", "instances.engine"},
	{"store", "fold_policy.min_interval_ms"},
	{"store", "fold_policy.min_garbage"},
	{"store", "reads.models.cache_cap"},
	{"store", "reads.templates.cache_cap"},
	{"runtime", "shards"},
	{"runtime", "persistence.enabled"},
	{"health", "admission.watermark"},
	{"health", "admission.resume"},
	{"health", "admission.retry_after_ms"},
}

// readSettings reads the settings the server at base reports.
func readSettings(base string) (settings, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	docs := make(map[string]map[string]any)
	out := make(settings)
	for _, sp := range settingPaths {
		doc, ok := docs[sp.endpoint]
		if !ok {
			if err := getJSON(hc, base+"/api/v1/admin/"+sp.endpoint, &doc); err != nil {
				return nil, err
			}
			docs[sp.endpoint] = doc
		}
		var v any = doc
		for _, k := range strings.Split(sp.path, ".") {
			m, _ := v.(map[string]any)
			v = m[k]
		}
		if v == nil {
			v = "(absent)"
		}
		out[sp.endpoint+"."+sp.path] = fmt.Sprint(v)
	}
	return out, nil
}

// diff lists the settings in which s and other differ.
func (s settings) diff(other settings) []string {
	var out []string
	for _, sp := range settingPaths {
		k := sp.endpoint + "." + sp.path
		if s[k] != other[k] {
			out = append(out, fmt.Sprintf("%s: %s vs %s", k, s[k], other[k]))
		}
	}
	return out
}

// refPath is the reference server's one route.
const refPath = "/ref"

// serveRef is the `serve-ref` mode: a plain net/http server with no
// gelee code in it, answering refPath with a small JSON body the way
// geleed answers a ping. The clients time a round trip to it between
// the workload's ops; that round trip measures the host's speed at the
// moment, and the *_rel metrics are expressed in it.
func serveRef(args []string) error {
	fl := flag.NewFlagSet("serve-ref", flag.ContinueOnError)
	addr := fl.String("addr", "127.0.0.1:0", "listen address")
	if err := fl.Parse(args); err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+refPath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{"ref": "ok"}) // a failed write shows as a client error
	})
	return http.ListenAndServe(*addr, mux)
}

// startRef starts the reference server and waits until it answers.
func startRef(self, logPath string) (*server, error) {
	s, err := startServer(self, []string{"serve-ref"}, logPath)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		var v map[string]string
		if err := getJSON(hc, s.base+refPath, &v); err == nil {
			return s, nil
		}
	}
	s.kill()
	return nil, errors.New("reference server not ready within 10s")
}
