package delegation

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPostAfterStopResolves is the stop/post race regression test. Before
// buffers learned to seal, a task posted after the worker's final sweep was
// never swept and its future never completed — the seed code hung here
// forever. Now the post must resolve with ErrWorkerStopped.
func TestPostAfterStopResolves(t *testing.T) {
	in := newInboxT(t, 1, 2)
	slots, _ := in.AcquireSlots(1, nil)
	c, _ := NewClient(slots)

	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		NewWorker(in.Buffers()[0]).Run(stopCh)
		close(done)
	}()
	close(stopCh)
	<-done // worker exited: buffer sealed, nobody will ever sweep again

	f := c.Delegate(func() any { t.Error("task executed after stop"); return nil })
	v, err := f.WaitTimeout(2 * time.Second)
	if errors.Is(err, ErrWaitTimeout) {
		t.Fatal("post-stop future hung (the pre-seal stop/post race)")
	}
	if !errors.Is(err, ErrWorkerStopped) {
		t.Fatalf("post-stop future = (%v, %v), want ErrWorkerStopped", v, err)
	}
	if in.Buffers()[0].Rescued.Load() == 0 {
		t.Error("rescued counter not incremented")
	}
	// The slot is free again and releasable.
	if err := in.ReleaseSlots(c.Slots()); err != nil {
		t.Errorf("release after rescue: %v", err)
	}
}

// TestStopPostRaceHammer races worker shutdowns against posting clients many
// times; every future must resolve. Run with -race.
func TestStopPostRaceHammer(t *testing.T) {
	for round := 0; round < 200; round++ {
		in := newInboxT(t, 1, 4)
		slots, _ := in.AcquireSlots(2, nil)
		c, _ := NewClient(slots)

		stopCh := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			NewWorker(in.Buffers()[0]).Run(stopCh)
		}()

		var futs []*Future
		postDone := make(chan struct{})
		go func() {
			defer close(postDone)
			for i := 0; i < 20; i++ {
				futs = append(futs, c.Delegate(func() any { return i }))
			}
		}()
		if round%2 == 0 {
			close(stopCh)
			<-postDone
		} else {
			<-postDone
			close(stopCh)
		}
		wg.Wait()
		for i, f := range futs {
			if _, err := f.WaitTimeout(5 * time.Second); errors.Is(err, ErrWaitTimeout) {
				t.Fatalf("round %d: future %d hung", round, i)
			}
		}
	}
}

func TestWaitTimeoutAndCtx(t *testing.T) {
	var f Future
	if _, err := f.WaitTimeout(5 * time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Errorf("pending WaitTimeout err = %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := f.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("pending WaitCtx err = %v", err)
	}
	// The future stays valid after both timeouts.
	f.complete(9)
	if v, err := f.WaitTimeout(time.Second); err != nil || v != 9 {
		t.Errorf("completed WaitTimeout = %v, %v", v, err)
	}
	if v, err := f.WaitCtx(context.Background()); err != nil || v != 9 {
		t.Errorf("completed WaitCtx = %v, %v", v, err)
	}
}

func TestResultSeparatesChannels(t *testing.T) {
	var ok Future
	ok.complete("v")
	if v, err := ok.Result(); err != nil || v != "v" {
		t.Errorf("value Result = %v, %v", v, err)
	}
	if ok.Err() != nil {
		t.Errorf("value Err = %v", ok.Err())
	}

	var bad Future
	bad.completeErr(PanicError{Value: "x"})
	if v, err := bad.Result(); v != nil || err == nil {
		t.Errorf("error Result = %v, %v", v, err)
	}
	var pe PanicError
	if !errors.As(bad.Err(), &pe) || pe.Value != "x" {
		t.Errorf("error Err = %v", bad.Err())
	}
	// Wait's historical shape: the error is the value.
	if v := bad.Wait(); v != bad.Err() {
		t.Errorf("Wait on error future = %v", v)
	}
}

func TestCompleteErrCannotClobberValue(t *testing.T) {
	var f Future
	f.complete(1)
	if f.completeErr(ErrWorkerStopped) {
		t.Error("completeErr overwrote a value result")
	}
	if v, err := f.Result(); err != nil || v != 1 {
		t.Errorf("Result after attempted clobber = %v, %v", v, err)
	}
}

func TestSealIdempotentAndSweepsPosted(t *testing.T) {
	b, _ := NewBuffer(0, 4)
	in, _ := NewInbox([]*Buffer{b})
	slots, _ := in.AcquireSlots(3, nil)
	c, _ := NewClient(slots)
	f1 := c.Delegate(func() any { return 1 })
	f2 := c.Delegate(func() any { return 2 })
	if n := b.Seal(); n != 2 {
		t.Errorf("seal's final sweep ran %d tasks, want 2", n)
	}
	if !b.Sealed() {
		t.Error("buffer not sealed")
	}
	if v, _ := f1.Result(); v != 1 {
		t.Errorf("f1 = %v", v)
	}
	if v, _ := f2.Result(); v != 2 {
		t.Errorf("f2 = %v", v)
	}
	if n := b.Seal(); n != 0 {
		t.Errorf("second seal ran %d tasks", n)
	}
}

func TestFailPending(t *testing.T) {
	b, _ := NewBuffer(0, 4)
	in, _ := NewInbox([]*Buffer{b})
	slots, _ := in.AcquireSlots(2, nil)
	c, _ := NewClient(slots)
	f1 := c.Delegate(func() any { return 1 })
	f2 := c.Delegate(func() any { return 2 })
	crash := PanicError{Value: "kill"}
	if n := b.FailPending(crash); n != 2 {
		t.Fatalf("FailPending failed %d futures, want 2", n)
	}
	for i, f := range []*Future{f1, f2} {
		var pe PanicError
		if !errors.As(f.Err(), &pe) {
			t.Errorf("f%d err = %v, want PanicError", i+1, f.Err())
		}
	}
	if b.Failed.Load() != 2 {
		t.Errorf("Failed = %d", b.Failed.Load())
	}
	// Slots are free again (and the buffer is NOT sealed: a respawned worker
	// keeps serving it).
	if b.Sealed() {
		t.Error("FailPending sealed the buffer")
	}
	c.Drain() // futures already resolved by error; harvest frees the window
	if err := in.ReleaseSlots(c.Slots()); err != nil {
		t.Errorf("release after FailPending: %v", err)
	}
}

func TestErrVariants(t *testing.T) {
	in := newInboxT(t, 1, 4)
	stop := startWorkers(in.Buffers())

	slots, _ := in.AcquireSlots(2, nil)
	c, _ := NewClient(slots)

	if v, err := c.InvokeErr(func() any { return 5 }); err != nil || v != 5 {
		t.Errorf("InvokeErr = %v, %v", v, err)
	}
	if _, err := c.InvokeErr(func() any { panic("p") }); err == nil {
		t.Error("InvokeErr missed the panic")
	}
	out, err := c.DelegateBulkErr([]Task{
		func() any { return 1 },
		func() any { panic("bulk") },
		func() any { return 3 },
	})
	var pe PanicError
	if !errors.As(err, &pe) || pe.Value != "bulk" {
		t.Errorf("DelegateBulkErr err = %v", err)
	}
	if out[0] != 1 || out[1] != nil || out[2] != 3 {
		t.Errorf("DelegateBulkErr out = %v", out)
	}
	// The panicked bulk task is still in the pending window, so DrainErr
	// reports it again (futures hold their result; draining re-reads it).
	var dpe PanicError
	if err := c.DrainErr(); !errors.As(err, &dpe) || dpe.Value != "bulk" {
		t.Errorf("DrainErr after bulk = %v, want the bulk PanicError", err)
	}

	// After the worker stops, a post is rescued before Delegate returns,
	// so its future already carries the failure, and DrainErr surfaces it
	// again on drain.
	stop()
	f := c.Delegate(func() any { return nil })
	if !errors.Is(f.Err(), ErrWorkerStopped) {
		t.Errorf("future err = %v", f.Err())
	}
	if err := c.DrainErr(); !errors.Is(err, ErrWorkerStopped) {
		t.Errorf("DrainErr after stop = %v", err)
	}
}

// TestCrashedWorkerReportsAndBufferStaysOpen covers Worker.Run's crash
// contract directly: the escaped panic comes back as the crash error, posted
// tasks fail with PanicError, and a fresh worker can take over the buffer.
func TestCrashedWorkerReportsAndBufferStaysOpen(t *testing.T) {
	b, _ := NewBuffer(0, 4)
	in, _ := NewInbox([]*Buffer{b})
	slots, _ := in.AcquireSlots(2, nil)
	c, _ := NewClient(slots)

	kill := &killOnceHook{}
	b.SetFaultHook(kill)
	f := c.Delegate(func() any { return "never" })

	stopCh := make(chan struct{})
	crash := NewWorker(b).Run(stopCh)
	var pe PanicError
	if !errors.As(crash, &pe) {
		t.Fatalf("crash = %v, want PanicError", crash)
	}
	var fpe PanicError
	if !errors.As(f.Err(), &fpe) {
		t.Fatalf("posted future err = %v, want PanicError", f.Err())
	}
	if b.Sealed() {
		t.Fatal("crash sealed the buffer")
	}
	c.Drain()

	// Respawn: the same buffer serves again.
	done := make(chan struct{})
	go func() {
		NewWorker(b).Run(stopCh)
		close(done)
	}()
	if v, err := c.InvokeErr(func() any { return "back" }); err != nil || v != "back" {
		t.Fatalf("respawned worker invoke = %v, %v", v, err)
	}
	close(stopCh)
	<-done
}

// killOnceHook panics out of the first sweep, simulating a worker crash.
type killOnceHook struct{ fired bool }

func (h *killOnceHook) BeforeSweep(worker int) {
	if !h.fired {
		h.fired = true
		panic("injected worker kill")
	}
}
func (h *killOnceHook) BeforeTask(int) {}
