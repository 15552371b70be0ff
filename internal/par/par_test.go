package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunCoversRange verifies every index is visited exactly once at several
// worker counts and grain sizes.
func TestRunCoversRange(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			for _, grain := range []int{0, 1, 7, 64} {
				p := New(workers)
				seen := make([]int32, n)
				err := p.Run(context.Background(), n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
				if err != nil {
					t.Fatalf("workers=%d n=%d grain=%d: %v", workers, n, grain, err)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times",
							workers, n, grain, i, c)
					}
				}
			}
		}
	}
}

// TestRunDeterministicFloatReduction is the contract test behind the
// placer's bit-identity guarantee: a parallel per-index compute phase
// followed by a serial in-order reduce must match the plain serial loop
// exactly, at every worker count.
func TestRunDeterministicFloatReduction(t *testing.T) {
	const n = 4096
	vals := make([]float64, n)
	for i := range vals {
		// Spread magnitudes so summation order actually matters.
		vals[i] = float64((i*2654435761)%1000) * 1e-3 * float64(1+i%17)
	}
	serial := 0.0
	for _, v := range vals {
		serial += v * v
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		sq := make([]float64, n)
		if err := p.Run(context.Background(), n, 33, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sq[i] = vals[i] * vals[i]
			}
		}); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range sq {
			sum += v
		}
		if sum != serial {
			t.Fatalf("workers=%d: parallel-compute + serial-reduce %v != serial %v", workers, sum, serial)
		}
	}
}

// TestRunCancellation verifies an expired context is reported and that a
// pre-cancelled context runs nothing.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(4)
	ran := atomic.Int32{}
	err := p.Run(ctx, 1000, 1, func(lo, hi int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled context still ran %d chunks", ran.Load())
	}
	// Nil context is background.
	if err := (*Pool)(nil).Run(nil, 10, 0, func(lo, hi int) {}); err != nil { //nolint:staticcheck
		t.Fatalf("nil ctx: %v", err)
	}
}

// TestNilPoolInline verifies the nil pool runs inline with one worker.
func TestNilPoolInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d, want 1", p.Workers())
	}
	count := 0
	if err := p.Run(context.Background(), 50, 0, func(lo, hi int) {
		count += hi - lo // no atomics: must be single-goroutine
	}); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("covered %d, want 50", count)
	}
}

// TestNewDefaults verifies New(0) picks up GOMAXPROCS.
func TestNewDefaults(t *testing.T) {
	if w := New(0).Workers(); w < 1 {
		t.Fatalf("New(0).Workers() = %d", w)
	}
	if w := New(3).Workers(); w != 3 {
		t.Fatalf("New(3).Workers() = %d", w)
	}
}
