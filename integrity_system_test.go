// System-level journal integrity: a corrupt data directory opened in
// quarantine mode comes up read-only and stays latched there — probe
// successes must not walk the node back to healthy while quarantined
// history is missing — and the admin health document carries the
// integrity section.
package gelee

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/resilience"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
)

// corruptFirstRecord flips one byte early in the file — mid-file
// damage, since later records stay valid.
func corruptFirstRecord(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 30 {
		t.Fatalf("journal too small to corrupt: %d bytes", len(data))
	}
	data[20] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineLatchesReadOnly seeds a journaled deployment, corrupts
// the store journal mid-file, and reopens with quarantine on: the
// system serves, but latched read-only — mutations reject, the health
// report says why, and a fast probe loop cannot step the state down.
func TestQuarantineLatchesReadOnly(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2026, 1, 10, 9, 0, 0, 0, time.UTC))
	sys, err := New(restartOpts(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	seedWorkload(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	corruptFirstRecord(t, filepath.Join(dir, "gelee.journal"))

	// Without quarantine the open refuses outright.
	opts := restartOpts(dir, clock)
	if _, err := New(opts); err == nil {
		t.Fatal("corrupt journal opened without quarantine")
	}

	opts.Integrity = IntegrityOptions{Quarantine: true}
	opts.Resilience = ResilienceOptions{ProbeInterval: 5 * time.Millisecond, RecoverAfter: 1}
	sys2, err := New(opts)
	if err != nil {
		t.Fatalf("quarantine open failed: %v", err)
	}
	defer sys2.Close()

	if got := sys2.Health(); got != resilience.ReadOnly {
		t.Fatalf("health after quarantine = %v, want read-only", got)
	}
	if err := sys2.AdmitMutation(); !errors.Is(err, resilience.ErrReadOnly) {
		t.Fatalf("gate after quarantine = %v, want ErrReadOnly", err)
	}
	rep := sys2.HealthReport()
	if !rep.Health.Latched {
		t.Fatal("read-only state not latched")
	}
	if rep.Integrity == nil || rep.Integrity.QuarantinedFiles == 0 || !rep.Integrity.ReadOnlyLatched {
		t.Fatalf("health integrity section = %+v, want quarantine counted and latched", rep.Integrity)
	}

	// The durability probes succeed (the reopened journal writes fine),
	// but the latch must hold: quarantined history does not grow back.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := sys2.Health(); got != resilience.ReadOnly {
		t.Fatalf("probe successes unlatched read-only: %v (probes %+v)", got, sys2.HealthReport().Probes)
	}

	// The model definitions that survived (instance journal was intact)
	// still serve reads, and the admin endpoint carries the section.
	srv := httptest.NewServer(sys2.HTTPHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/v1/admin/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		State     string `json:"state"`
		Integrity *struct {
			QuarantinedFiles uint64 `json:"quarantined_files"`
			ReadOnlyLatched  bool   `json:"read_only_latched"`
		} `json:"integrity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != "read-only" || doc.Integrity == nil ||
		doc.Integrity.QuarantinedFiles == 0 || !doc.Integrity.ReadOnlyLatched {
		t.Fatalf("admin health = %+v", doc)
	}
}

// TestHealthReportIntegritySection checks the happy path: a healthy
// journaled deployment reports framing on, zero corruption, no latch.
func TestHealthReportIntegritySection(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2026, 1, 10, 9, 0, 0, 0, time.UTC))
	sys, err := New(restartOpts(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.DefineModel("", scenario.QualityPlan()); err != nil {
		t.Fatal(err)
	}
	rep := sys.HealthReport()
	if rep.Integrity == nil || !rep.Integrity.Framing {
		t.Fatalf("integrity section = %+v, want framing on", rep.Integrity)
	}
	if rep.Integrity.CorruptFiles != 0 || rep.Integrity.ReadOnlyLatched {
		t.Fatalf("healthy node reports corruption: %+v", rep.Integrity)
	}
}

// TestFailedOpenReleasesDataDir: an open that fails — here on an
// instance journal corrupt mid-file, after the definitions store has
// loaded and started its folder and scrubber — releases everything it
// opened. Repeated failed opens leave no file descriptor into the
// directory, no goroutine behind, and the definitions journal
// byte-identical.
func TestFailedOpenReleasesDataDir(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2026, 1, 10, 9, 0, 0, 0, time.UTC))
	sys, err := New(restartOpts(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	seedWorkload(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	corruptFirstRecord(t, filepath.Join(dir, "instances", "gelee.journal"))
	journal := filepath.Join(dir, "gelee.journal")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}

	baseline := stdruntime.NumGoroutine()
	opts := restartOpts(dir, clock)
	opts.Integrity.ScrubInterval = time.Hour
	for i := 0; i < 5; i++ {
		if sys, err := New(opts); err == nil {
			sys.Close()
			t.Fatal("corrupt instance journal opened")
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for stdruntime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Errorf("goroutines after failed opens: %d, baseline %d", stdruntime.NumGoroutine(), baseline)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fds, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Log("no /proc/self/fd: open file descriptors not checked")
	} else {
		root, err := filepath.EvalSymlinks(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range fds {
			target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
			if err == nil && (strings.HasPrefix(target, root+string(filepath.Separator)) || target == root) {
				t.Errorf("fd %s still open on %s", fd.Name(), target)
			}
		}
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed opens changed %s: %d bytes before, %d after", journal, len(before), len(after))
	}
}
