package parallel

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestForEachErrCollectsInOrder(t *testing.T) {
	errs := RunCells(10, RunOptions{Workers: 4}, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("cell %d", i)
		}
		return nil
	})
	if len(errs) != 10 {
		t.Fatalf("%d errors, want 10", len(errs))
	}
	for i, err := range errs {
		if (i%3 == 0) != (err != nil) {
			t.Errorf("cell %d: err = %v", i, err)
		}
		if err != nil && err.Error() != fmt.Sprintf("cell %d", i) {
			t.Errorf("cell %d: wrong error %v", i, err)
		}
	}
}

func TestRunCellsCapturesPanics(t *testing.T) {
	errs := RunCells(5, RunOptions{Workers: 2}, func(i int) error {
		if i == 3 {
			panic("copies: injected failure")
		}
		return nil
	})
	for i, err := range errs {
		if i != 3 {
			if err != nil {
				t.Errorf("cell %d: unexpected error %v", i, err)
			}
			continue
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("cell 3: error %v is not a PanicError", err)
		}
		if pe.Index != 3 || pe.Value != "copies: injected failure" || len(pe.Stack) == 0 {
			t.Fatalf("cell 3: bad PanicError %+v", pe)
		}
	}
}

func TestRunCellsWatchdog(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	errs := RunCells(4, RunOptions{Workers: 4, Timeout: 20 * time.Millisecond}, func(i int) error {
		if i == 1 {
			<-hang
		}
		return nil
	})
	var te *TimeoutError
	if !errors.As(errs[1], &te) {
		t.Fatalf("cell 1: error %v is not a TimeoutError", errs[1])
	}
	if te.Index != 1 || te.Timeout != 20*time.Millisecond {
		t.Fatalf("bad TimeoutError %+v", te)
	}
	for _, i := range []int{0, 2, 3} {
		if errs[i] != nil {
			t.Errorf("cell %d: unexpected error %v", i, errs[i])
		}
	}
}

func TestRunCellsCancelDrains(t *testing.T) {
	cancel := make(chan struct{})
	started := make(chan int, 64)
	errs := RunCells(64, RunOptions{Workers: 2, Cancel: cancel}, func(i int) error {
		started <- i
		if len(started) == 4 {
			close(cancel)
		}
		return nil
	})
	var done, skipped int
	for i, err := range errs {
		switch {
		case err == nil:
			done++
		case errors.Is(err, ErrCanceled):
			skipped++
		default:
			t.Fatalf("cell %d: unexpected error %v", i, err)
		}
	}
	if done+skipped != 64 {
		t.Fatalf("done %d + skipped %d != 64", done, skipped)
	}
	if skipped == 0 {
		t.Fatal("cancel skipped nothing; expected most cells canceled")
	}
}

func TestRunCellsZeroAndNegative(t *testing.T) {
	if errs := RunCells(0, RunOptions{}, func(int) error { return errors.New("no") }); len(errs) != 0 {
		t.Fatalf("n=0 returned %d errors", len(errs))
	}
	if errs := RunCells(-3, RunOptions{}, nil); len(errs) != 0 {
		t.Fatalf("n<0 returned %d errors", len(errs))
	}
}
