package store

// Replay fan-out shared by Store.LoadParallel and
// Instances.ReplayParallel: a single reader streams entries in commit
// order and dispatches each to a worker lane picked by key, so entries
// with the same key apply in exactly the sequential-replay order while
// independent keys proceed in parallel. The reader keeps doing all
// skip/bounds bookkeeping (it is cheap); workers only run apply. An
// apply error, naming the file and line of the entry that failed
// (RecordError), aborts the stream at the next dispatch; lanes drain
// so nothing blocks. quiesce is the barrier for an entry every later
// one may depend on: it returns once the lanes applied everything
// dispatched before it.

import (
	"sync"
	"sync/atomic"

	"github.com/liquidpub/gelee/internal/shardkey"
)

// fanLane is one worker goroutine's queue.
type fanLane struct {
	ch chan fanItem
	wg sync.WaitGroup
}

// fanItem is one queued entry, or a barrier marker (done set) the lane
// acknowledges once everything queued ahead of it applied.
type fanItem struct {
	e    Entry
	done *sync.WaitGroup
}

// fanOut runs workers lanes applying entries keyed onto them.
type fanOut struct {
	lanes    []*fanLane
	failed   atomic.Bool
	errMu    sync.Mutex
	firstErr error
}

// newFanOut starts the worker lanes. Callers must finish() exactly
// once, after the last dispatch.
func newFanOut(workers int, apply func(Entry) error) *fanOut {
	f := &fanOut{lanes: make([]*fanLane, workers)}
	for i := range f.lanes {
		l := &fanLane{ch: make(chan fanItem, 256)}
		f.lanes[i] = l
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for it := range l.ch {
				if it.done != nil {
					it.done.Done()
					continue
				}
				if f.failed.Load() {
					continue // drain after failure
				}
				if err := apply(it.e); err != nil {
					err = located(err, it.e)
					f.errMu.Lock()
					if f.firstErr == nil {
						f.firstErr = err
					}
					f.errMu.Unlock()
					f.failed.Store(true)
				}
			}
		}()
	}
	return f
}

// dispatch hands e to the lane owning key, or returns the first apply
// error once a worker has failed (aborting the caller's stream).
func (f *fanOut) dispatch(key string, e Entry) error {
	if err := f.err(); err != nil {
		return err
	}
	f.lanes[shardkey.Index(key, len(f.lanes))].ch <- fanItem{e: e}
	return nil
}

// quiesce waits until every lane applied all it was dispatched, then
// reports the first apply error, if any.
func (f *fanOut) quiesce() error {
	var done sync.WaitGroup
	done.Add(len(f.lanes))
	for _, l := range f.lanes {
		l.ch <- fanItem{done: &done}
	}
	done.Wait()
	return f.err()
}

// err returns the first apply error once a worker has failed.
func (f *fanOut) err() error {
	if !f.failed.Load() {
		return nil
	}
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.firstErr
}

// finish closes the lanes, waits for the workers and reports the first
// apply error.
func (f *fanOut) finish() error {
	for _, l := range f.lanes {
		close(l.ch)
		l.wg.Wait()
	}
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.firstErr
}
