package reldb

import (
	"path/filepath"
	"testing"
	"time"
)

// A checkpoint roll that lands while a sync pass is starting must not
// leave the pass fsyncing the handle the roll just closed: that would
// set the sticky fsync error and fail every later commit. The test
// holds the append lock to line the two up in the racy order — the
// pass queues first, then the roll takes fsyncMu and queues behind it —
// and releases them together. The sleeps only arrange that order; a
// correct lock order passes under any interleaving.
func TestWALSyncPassRacingRoll(t *testing.T) {
	dir := t.TempDir()
	f, err := createSegment(filepath.Join(dir, walSegmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	w := newWAL(dir, SyncNone, 0, f, 0, 0)
	defer w.close()
	if _, err := w.append(1, []byte("commit 1")); err != nil {
		t.Fatal(err)
	}

	w.mu.Lock()
	passed := make(chan struct{})
	go func() {
		w.syncPass()
		close(passed)
	}()
	time.Sleep(20 * time.Millisecond)
	type rollResult struct {
		start uint64
		err   error
	}
	rolled := make(chan rollResult)
	go func() {
		start, err := w.roll()
		rolled <- rollResult{start, err}
	}()
	time.Sleep(20 * time.Millisecond)
	w.mu.Unlock()

	r := <-rolled
	<-passed
	if r.err != nil || r.start != 1 {
		t.Fatalf("roll = %d, %v; want 1, nil", r.start, r.err)
	}
	if w.serr != nil {
		t.Fatalf("sync pass racing a roll left a sticky error: %v", w.serr)
	}

	// The log keeps working: a later commit appends to the new segment
	// and the next pass makes it durable.
	seq, err := w.append(2, []byte("commit 2"))
	if err != nil {
		t.Fatal(err)
	}
	w.syncPass()
	if w.serr != nil || w.synced < seq {
		t.Fatalf("after roll: synced %d (want >= %d), err %v", w.synced, seq, w.serr)
	}
}
