package store

// The background scrubber: bounded re-verification of durable files
// while the journal serves. Each tick walks the generation in a fixed
// order — sealed segments by number, then the newest snapshot, then
// archives by number — resuming at a cursor and stopping once the byte
// budget is spent; reaching the end completes a pass and resets the
// cursor. Each file is checked by liveFile.verify, the per-kind
// verifier the open's replay and Fsck use too. The active file is
// never scrubbed: its tail is legitimately in flux (buffered writes can
// land mid-line), and every line in it is re-verified at the next open
// anyway.
//
// Scrubbing is detection, not repair: a failed file is counted, stamped
// into IntegrityStats.LastError and reported through onCorrupt (which
// feeds the journal-corruption alert), but never moved while the journal
// may be serving reads from it — quarantine is an open-time decision,
// repair an offline one (fsck).

import (
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// scrubLoop runs tick(DefaultScrubBytesPerTick) every interval from
// its own goroutine and returns an idempotent stop function that
// waits for the loop to exit. The shared driver behind Store's and
// Instances' background scrubbers.
func scrubLoop(interval time.Duration, tick func(int64) ScrubResult) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				tick(DefaultScrubBytesPerTick)
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// ScrubResult reports what one scrub tick did.
type ScrubResult struct {
	// Files and Bytes count what this tick verified.
	Files int   `json:"files"`
	Bytes int64 `json:"bytes"`
	// Corrupt counts files that failed verification this tick.
	Corrupt int `json:"corrupt"`
	// PassCompleted reports that the tick reached the end of the
	// generation (the cursor reset; the next tick starts over).
	PassCompleted bool `json:"pass_completed"`
}

// less orders the scrub walk: sealed segments, the snapshot, archives,
// each by file number. The zero liveFile means "start of the pass" —
// the active file is never a candidate.
func (f liveFile) less(g liveFile) bool {
	return f.kind < g.kind || (f.kind == g.kind && f.num < g.num)
}

// scrubCandidates lists the currently verifiable files in walk order
// from the live generation state — no directory scan, so a tick races
// folds only through the filesystem (a file deleted underfoot verifies
// as empty and is skipped).
func (sf *segFiles) scrubCandidates() []liveFile {
	var out []liveFile
	snap := sf.snapNum.Load()
	hi := atomic.LoadUint64(&sf.sealedHi)
	for n := snap + 1; n <= hi; n++ {
		out = append(out, liveFile{kind: kindSealed, num: n, name: sealedName(n)})
	}
	if snap > 0 {
		out = append(out, liveFile{kind: kindSnapshot, num: snap, name: snapName(snap)})
	}
	sf.refMu.Lock()
	refs := make([]liveFile, 0, len(sf.refs))
	for n, ref := range sf.refs {
		refs = append(refs, liveFile{kind: kindArchive, num: n, name: archiveName(n), ref: ref})
	}
	sf.refMu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].num < refs[j].num })
	return append(out, refs...)
}

// scrubTick runs one bounded verification tick (at most maxBytes of
// IO, 0 = DefaultScrubBytesPerTick). Ticks are serialized by scrubMu;
// callers may invoke it from a ticker loop or on demand.
func (sf *segFiles) scrubTick(maxBytes int64) ScrubResult {
	sf.scrubMu.Lock()
	defer sf.scrubMu.Unlock()
	if maxBytes <= 0 {
		maxBytes = DefaultScrubBytesPerTick
	}
	var res ScrubResult
	start := liveFile{}
	cursor := sf.scrubCursor
	budget := maxBytes
	for _, c := range sf.scrubCandidates() {
		if cursor != start && !cursor.less(c) {
			continue // verified earlier in this pass
		}
		fr, err := c.verify(sf.fs, sf.dir, nil)
		size := fr.size
		res.Files++
		res.Bytes += size
		sf.scrubFiles.Add(1)
		sf.scrubBytes.Add(uint64(size))
		if err != nil {
			res.Corrupt++
			sf.corrupt.Add(1)
			sf.scrubErr = err.Error()
			if sf.onCorrupt != nil {
				sf.onCorrupt(CorruptFile{Path: filepath.Join(sf.dir, c.name), Detail: err.Error(), Source: "scrub"})
			}
		}
		sf.scrubCursor = c
		cursor = c
		budget -= size
		if budget <= 0 {
			sf.scrubTicks.Add(1)
			return res
		}
	}
	sf.scrubCursor = start
	sf.scrubPasses.Add(1)
	sf.lastScrub.Store(time.Now().Unix())
	sf.scrubTicks.Add(1)
	res.PassCompleted = true
	return res
}
