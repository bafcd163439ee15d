package delegation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// opShape is one kind of op descriptor. The lifecycle tests run every shape
// through the same checks — live sweep, seal rescue, panicking op — so each
// contract is pinned once per shape rather than once per entry point.
type opShape struct {
	name  string
	typed bool
	want  string // the op's result as invokeShape formats it
	// build returns the shape's op against kernel k; ran counts closure
	// executions (the kernel counts typed ones) and boom makes the op panic.
	build func(k *mapKernel, ran *atomic.Int32, boom bool) Op
}

// Shape kernels hold key 1 → 10; the typed insert targets the absent key 2.
const shapeGetKey, shapeInsertKey = 1, 2

func newShapeKernel() *mapKernel {
	k := newMapKernel()
	k.m[shapeGetKey] = 10
	return k
}

// shapeTask is the closure shapes' task: it counts its run, then returns
// "v" or panics.
func shapeTask(ran *atomic.Int32, boom bool) Task {
	return func() any {
		ran.Add(1)
		if boom {
			panic("boom")
		}
		return "v"
	}
}

// typedShape builds a typed op on key, arming the kernel to panic on it.
func typedShape(kind uint8, key uint64) func(*mapKernel, *atomic.Int32, bool) Op {
	return func(k *mapKernel, _ *atomic.Int32, boom bool) Op {
		if boom {
			k.panicKey = key
		}
		return Op{Kern: k, Kind: kind, Key: key, Val: 20}
	}
}

var opShapes = []opShape{
	{"closure", false, "v", func(_ *mapKernel, ran *atomic.Int32, boom bool) Op {
		return Op{Task: shapeTask(ran, boom)}
	}},
	{"read-closure", false, "v", func(_ *mapKernel, ran *atomic.Int32, boom bool) Op {
		return Op{Task: shapeTask(ran, boom), Read: true}
	}},
	{"logged-closure", false, "v", func(_ *mapKernel, ran *atomic.Int32, boom bool) Op {
		return Op{Task: shapeTask(ran, boom), Log: func(dst []byte) []byte { return append(dst, 'L') }}
	}},
	{"typed-get", true, "10 true", typedShape(KVGet, shapeGetKey)},
	{"typed-insert", true, "0 true", typedShape(KVInsert, shapeInsertKey)},
}

// executions counts how many times the shape's op ran: closure runs, or
// ops the kernel received.
func (sh opShape) executions(k *mapKernel, ran *atomic.Int32) int {
	if !sh.typed {
		return int(ran.Load())
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for _, g := range k.groups {
		n += g
	}
	return n
}

// invokeShape posts op into a reserved slot, awaits it the way its shape
// requires, and checks the slot's embedded future completed exactly once:
// its generation advanced by one and left the pending state. The result is
// formatted as a string (a typed op's "value found").
func invokeShape(t *testing.T, c *Client, sh opShape, op Op) (string, error) {
	t.Helper()
	i, ok := c.Reserve()
	if !ok {
		t.Fatal("no free slot")
	}
	f := &c.slots[i].fut0
	gen := f.word.Load() >> futGenShift
	h := c.Post(i, op)
	var v any
	var err error
	if sh.typed {
		var val uint64
		var found bool
		val, found, err = c.AwaitKV(h)
		v = fmt.Sprint(val, found)
	} else {
		v, err = c.Await(h)
	}
	w := f.word.Load()
	if got := w>>futGenShift - gen; got != 1 || w&futStateMask == futPending {
		t.Errorf("%s: future advanced %d generations, state %d; want one completed generation", sh.name, got, w&futStateMask)
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprint(v), nil
}

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

	f := c.Delegate(Op{Task: func() any { t.Error("task executed after stop"); return nil }})
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

	// Every op shape posted into the stopped worker's buffer is rescued:
	// it completes exactly once with ErrWorkerStopped and never runs.
	b := in.Buffers()[0]
	slots, _ = in.AcquireSlots(1, nil)
	c, _ = NewClient(slots)
	for _, sh := range opShapes {
		k := newShapeKernel()
		var ran atomic.Int32
		rescued := b.Rescued.Load()
		if _, err := invokeShape(t, c, sh, sh.build(k, &ran, false)); !errors.Is(err, ErrWorkerStopped) {
			t.Errorf("%s: err = %v, want ErrWorkerStopped", sh.name, err)
		}
		if n := sh.executions(k, &ran); n != 0 {
			t.Errorf("%s executed %d times after stop", sh.name, n)
		}
		if got := b.Rescued.Load() - rescued; got != 1 {
			t.Errorf("%s rescued %d times, want 1", sh.name, got)
		}
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
				futs = append(futs, c.Delegate(Op{Task: func() any { return i }}))
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
	f1 := c.Delegate(Op{Task: func() any { return 1 }})
	f2 := c.Delegate(Op{Task: func() any { return 2 }})
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
	f1 := c.Delegate(Op{Task: func() any { return 1 }})
	f2 := c.Delegate(Op{Task: func() any { return 2 }})
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

	if v, err := invoke(c, Op{Task: func() any { return 5 }}); err != nil || v != 5 {
		t.Errorf("invoke = %v, %v", v, err)
	}
	if _, err := invoke(c, Op{Task: func() any { panic("p") }}); err == nil {
		t.Error("invoke missed the panic")
	}
	// A bulk burst: three delegations, then every future's result.
	futs := []*Future{
		c.Delegate(Op{Task: func() any { return 1 }}),
		c.Delegate(Op{Task: func() any { panic("bulk") }}),
		c.Delegate(Op{Task: func() any { return 3 }}),
	}
	out := make([]any, len(futs))
	var err error
	for i, f := range futs {
		v, ferr := f.Result()
		out[i] = v
		if ferr != nil && err == nil {
			err = ferr
		}
	}
	var pe PanicError
	if !errors.As(err, &pe) || pe.Value != "bulk" {
		t.Errorf("bulk err = %v", err)
	}
	if out[0] != 1 || out[1] != nil || out[2] != 3 {
		t.Errorf("bulk out = %v", out)
	}
	// The panicked bulk task is still in the pending window, so Drain
	// reports it again (futures hold their result; draining re-reads it).
	var dpe PanicError
	if err := c.Drain(); !errors.As(err, &dpe) || dpe.Value != "bulk" {
		t.Errorf("Drain after bulk = %v, want the bulk PanicError", err)
	}

	// After the worker stops, a post is rescued before Delegate returns,
	// so its future already carries the failure, and Drain surfaces it
	// again on drain.
	stop()
	f := c.Delegate(Op{Task: func() any { return nil }})
	if !errors.Is(f.Err(), ErrWorkerStopped) {
		t.Errorf("future err = %v", f.Err())
	}
	if err := c.Drain(); !errors.Is(err, ErrWorkerStopped) {
		t.Errorf("Drain after stop = %v", err)
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
	f := c.Delegate(Op{Task: func() any { return "never" }})

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
	if v, err := invoke(c, Op{Task: func() any { return "back" }}); err != nil || v != "back" {
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
