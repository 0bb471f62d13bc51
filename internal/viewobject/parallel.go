package viewobject

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"penguin/internal/obs"
	"penguin/internal/par"
	"penguin/internal/reldb"
	"penguin/internal/structural"
)

// parallelismSetting holds the configured worker budget for parallel
// instantiation: 0 means "track GOMAXPROCS" (the default), any positive
// value is an explicit override.
var parallelismSetting atomic.Int32

// minChunk is the fewest items (pivots or level parents) one fan-out
// range may hold: the one size floor for every fan-out in assembly. On
// an un-indexed level each range repeats the level's shared scan; with
// at least minChunk parents per range, a chunked fill still scans each
// level at most once per minChunk parents, so chunking cannot undo
// batching.
const minChunk = 8

// chunksPerWorker oversubscribes the pivot chunk count relative to the
// worker pool so a chunk that happens to carry deep instances does not
// leave the other workers idle at the tail.
const chunksPerWorker = 4

// SetParallelism sets the worker budget for parallel instantiation and
// returns the previous setting. n > 0 fixes the budget; n <= 0 restores
// the default of tracking GOMAXPROCS (reported as 0). A budget of 1
// disables parallel fan-out entirely.
func SetParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(parallelismSetting.Swap(int32(n)))
}

// Parallelism returns the effective worker budget: the SetParallelism
// override if one is in force, otherwise GOMAXPROCS.
func Parallelism() int {
	if n := parallelismSetting.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut is how many ranges a fan-out over n items splits into on the
// given worker budget, with perWorker ranges per worker: never so many
// that a range holds fewer than minChunk items. Below 2 the work stays
// sequential.
func fanOut(n, workers, perWorker int) int {
	if workers < 2 {
		return 1
	}
	return min(workers*perWorker, n/minChunk)
}

// lockedResolver serializes Relation calls so fan-out workers can share
// a resolver that is not safe for concurrent use: a write Tx clones
// relations lazily into a private map (vupdate instantiates by key
// inside one). The relations it hands out are only read by assembly,
// and concurrent reads of a relation are safe.
type lockedResolver struct {
	mu  sync.Mutex
	res structural.Resolver
}

func (l *lockedResolver) Relation(name string) (*reldb.Relation, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.res.Relation(name)
}

// instantiateParallel splits the pivot frontier into `chunks` contiguous
// ranges and assembles them on the worker pool. Each chunk runs the same batched
// level-at-a-time path the sequential route uses (with no nested level
// fan-out: the pool is already busy), and the per-chunk results
// concatenate back in chunk order — so the output is byte-identical to
// a sequential assembly, pivot-key order included, and the error of the
// lowest-indexed failing chunk wins.
//
// Safety: the workers share res through a lockedResolver, each instance
// subtree is touched by exactly one worker, and all shared metric sinks
// are atomic — so workers need no locks of their own.
func instantiateParallel(res structural.Resolver, def *Definition, pivots []reldb.Tuple, chunks, workers int, op obs.Op) ([]*Instance, error) {
	res = &lockedResolver{res: res}
	parts, err := par.Map(len(pivots), chunks, workers, func(i, lo, hi int) ([]*Instance, error) {
		// Op is a value whose shared state is atomic/locked, so each
		// chunk can hang its span off the same parent; the tree stays
		// connected across the pool.
		cop := op.Child("viewobject.chunk")
		insts, err := assembleBatch(res, def, pivots[lo:hi], 1)
		if err == nil && cop.Active() {
			cop.Finish(fmt.Sprintf("chunk=%d pivots=%d", i, hi-lo))
		}
		return insts, err
	})
	obs.Default.ParallelWorkers.Add(int64(min(workers, chunks)))
	obs.Default.ParallelChunks.Add(int64(chunks))
	if err != nil {
		return nil, err
	}
	return slices.Concat(parts...), nil
}
