package par

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

type span struct{ i, lo, hi int }

// Every split of [0,n) into at most k ranges must be non-empty,
// contiguous, in order and covering, with results returned in range
// order and never more than `workers` calls in flight.
func TestMapRanges(t *testing.T) {
	for n := 0; n <= 200; n++ {
		for k := 1; k <= 40; k++ {
			for _, workers := range []int{1, 3, k} {
				var active, peak atomic.Int32
				got, err := Map(n, k, workers, func(i, lo, hi int) (span, error) {
					a := active.Add(1)
					defer active.Add(-1)
					for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
					}
					return span{i, lo, hi}, nil
				})
				if err != nil {
					t.Fatalf("n=%d k=%d: %v", n, k, err)
				}
				if want := min(n, k); len(got) != want {
					t.Fatalf("n=%d k=%d: %d ranges, want %d", n, k, len(got), want)
				}
				next := 0
				for i, s := range got {
					if s.i != i || s.lo != next || s.hi <= s.lo {
						t.Fatalf("n=%d k=%d: range %d = %+v, want index %d starting at %d, non-empty", n, k, i, s, i, next)
					}
					if size := s.hi - s.lo; size < n/len(got) || size > n/len(got)+1 {
						t.Fatalf("n=%d k=%d: range %d has %d items, want %d or %d", n, k, i, size, n/len(got), n/len(got)+1)
					}
					next = s.hi
				}
				if next != n {
					t.Fatalf("n=%d k=%d: ranges cover [0,%d), want [0,%d)", n, k, next, n)
				}
				if p := int(peak.Load()); p > workers {
					t.Fatalf("n=%d k=%d: %d calls in flight, want <= %d workers", n, k, p, workers)
				}
			}
		}
	}
}

// Whatever set of ranges fails, and however the workers interleave,
// Map reports the lowest-indexed failure and no results.
func TestMapLowestErrorWins(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 200; n += 7 {
		for k := 1; k <= 40; k += 3 {
			m := min(n, k)
			fails := make([]bool, m)
			lowest := -1
			for i := m - 1; i >= 0; i-- {
				if i == m-1 || rng.Intn(4) == 0 {
					fails[i] = true
					lowest = i
				}
			}
			got, err := Map(n, k, k, func(i, lo, hi int) (int, error) {
				if fails[i] {
					return 0, fmt.Errorf("range %d", i)
				}
				return i, nil
			})
			if want := fmt.Sprintf("range %d", lowest); err == nil || err.Error() != want {
				t.Fatalf("n=%d k=%d: err = %v, want %q", n, k, err, want)
			}
			if got != nil {
				t.Fatalf("n=%d k=%d: failed Map returned %d results", n, k, len(got))
			}
		}
	}
}

// A failure stops the ranges above it from starting: with one worker
// the ranges run in order, so nothing after the failing range runs.
func TestMapSkipsRangesAboveFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	_, err := Map(10, 10, 1, func(i, lo, hi int) (struct{}, error) {
		ran = append(ran, i)
		if i == 3 {
			return struct{}{}, boom
		}
		return struct{}{}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(ran) != 4 {
		t.Fatalf("ran ranges %v, want 0..3 only", ran)
	}
}
