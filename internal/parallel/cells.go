package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"partalloc/internal/obs"
)

// ErrCanceled marks cells that were never started because RunOptions.Cancel
// was closed first. Cells already in flight when the cancel lands run to
// completion (their results are real, not canceled).
var ErrCanceled = errors.New("parallel: run canceled before cell started")

// PanicError is a cell panic converted into a value: the harness must
// survive a panicking cell (a capacity-exhaustion panic under fault
// injection, say) and keep the other cells' results.
type PanicError struct {
	// Index is the cell that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: cell %d panicked: %v", e.Index, e.Value)
}

// TimeoutError marks a cell that outran the per-cell watchdog.
type TimeoutError struct {
	// Index is the cell that timed out.
	Index int
	// Timeout is the watchdog duration that expired.
	Timeout time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("parallel: cell %d exceeded %v", e.Index, e.Timeout)
}

// RunOptions configures RunCells.
type RunOptions struct {
	// Workers bounds concurrency (≤ 0 selects GOMAXPROCS).
	Workers int
	// Timeout is the per-cell watchdog (0 = none). A timed-out cell's
	// goroutine cannot be killed — it is abandoned and its eventual
	// result discarded — so fn should not hold unbounded resources when
	// this is set.
	Timeout time.Duration
	// Cancel, when closed, stops workers from claiming new cells; cells
	// never started report ErrCanceled. In-flight cells drain normally,
	// which is what lets a SIGINT handler keep a consistent checkpoint.
	Cancel <-chan struct{}
	// Sink counts watchdog kills and captured panics. nil (the default)
	// records nothing.
	Sink *obs.Sink
}

// RunCells runs fn(i) for i in [0, n) on a bounded worker pool and returns
// per-index errors (nil for success). Unlike ForEach it never lets one bad
// cell take down the sweep: panics become *PanicError and hung cells trip
// the watchdog as *TimeoutError. Results are index-ordered, so downstream
// tables stay byte-identical to a sequential run regardless of scheduling.
func RunCells(n int, opt RunOptions, fn func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if canceled(opt.Cancel) {
					errs[i] = ErrCanceled
					continue // drain the remaining tickets as canceled
				}
				errs[i] = runCell(i, opt, fn)
			}
		}()
	}
	wg.Wait()
	return errs
}

// runCell runs one cell under the watchdog (if armed).
func runCell(i int, opt RunOptions, fn func(i int) error) error {
	if opt.Timeout <= 0 {
		return capture(i, opt.Sink, fn)
	}
	done := make(chan error, 1)
	go func() { done <- capture(i, opt.Sink, fn) }()
	timer := time.NewTimer(opt.Timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		// The cell's goroutine is abandoned; its buffered send cannot
		// block and its result is discarded.
		opt.Sink.WatchdogTimeout(i, int64(opt.Timeout))
		return &TimeoutError{Index: i, Timeout: opt.Timeout}
	}
}

// capture converts a panic in fn into a *PanicError.
func capture(i int, sink *obs.Sink, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			sink.CellPanic(i)
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

func canceled(c <-chan struct{}) bool {
	if c == nil {
		return false
	}
	select {
	case <-c:
		return true
	default:
		return false
	}
}
