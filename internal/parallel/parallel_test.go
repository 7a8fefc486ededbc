package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, -1, 100} {
		counts := make([]int32, 40)
		if err := ForErr(workers, len(counts), func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, c)
			}
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	if err := ForErr(4, 0, func(i int) error {
		t.Error("fn called on empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForErrLowestIndexWins(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 4} {
		err := ForErr(workers, 10, func(i int) error {
			switch i {
			case 2:
				return errLow
			case 7:
				return errHigh
			}
			return nil
		})
		// Index 2 is always dispatched before 7, so its error is always
		// collected and must win.
		if err != errLow {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
	}
}

func TestForErrStopsDispatchingAfterFailure(t *testing.T) {
	var ran int32
	err := ForErr(2, 1000, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return errors.New("fail fast")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// After index 0 fails, dispatch must stop: with 2 workers only a
	// handful of indices can already be in flight, nowhere near all
	// 1000 (the serial path would run exactly 1).
	if n := atomic.LoadInt32(&ran); n > 100 {
		t.Fatalf("ran %d trials after early failure, want early stop", n)
	}
}

func TestForErrNoError(t *testing.T) {
	var ran int32
	if err := ForErr(4, 20, func(i int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 20 {
		t.Fatalf("ran %d, want 20", ran)
	}
}
