package delegation

import (
	"errors"
	"sync"
	"testing"
)

// startWorkers spins up one worker goroutine per buffer and returns a stop
// function that shuts them all down.
func startWorkers(bufs []*Buffer) (stop func()) {
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for _, b := range bufs {
		wg.Add(1)
		go func(b *Buffer) {
			defer wg.Done()
			NewWorker(b).Run(stopCh)
		}(b)
	}
	return func() {
		close(stopCh)
		wg.Wait()
	}
}

func newInboxT(t *testing.T, workers, slotsPer int) *Inbox {
	t.Helper()
	var bufs []*Buffer
	for w := 0; w < workers; w++ {
		b, err := NewBuffer(w, slotsPer)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	in, err := NewInbox(bufs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestBufferValidation(t *testing.T) {
	if _, err := NewBuffer(0, 0); err == nil {
		t.Error("0 slots accepted")
	}
	if _, err := NewBuffer(0, SlotsPerBuffer+1); err == nil {
		t.Error("oversized buffer accepted")
	}
	if _, err := NewInbox(nil); err == nil {
		t.Error("empty inbox accepted")
	}
}

func TestSynchronousInvoke(t *testing.T) {
	in := newInboxT(t, 1, 4)
	stop := startWorkers(in.Buffers())
	defer stop()

	slots, err := in.AcquireSlots(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(slots)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Invoke(func() any { return 41 + 1 })
	if got != 42 {
		t.Errorf("Invoke = %v, want 42", got)
	}
	c.Drain()
	if err := in.ReleaseSlots(c.Slots()); err != nil {
		t.Fatal(err)
	}
}

func TestFutureStates(t *testing.T) {
	var f Future
	if f.Done() {
		t.Error("fresh future done")
	}
	if _, ok := f.TryGet(); ok {
		t.Error("fresh future has value")
	}
	f.complete("x")
	if !f.Done() {
		t.Error("completed future not done")
	}
	if v, ok := f.TryGet(); !ok || v != "x" {
		t.Errorf("TryGet = %v,%v", v, ok)
	}
	if v := f.Wait(); v != "x" {
		t.Errorf("Wait = %v", v)
	}
}

func TestBurstDelegation(t *testing.T) {
	in := newInboxT(t, 1, 14) // the paper's burst size
	stop := startWorkers(in.Buffers())
	defer stop()

	slots, err := in.AcquireSlots(14, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(slots)
	if c.Burst() != 14 {
		t.Fatalf("Burst = %d", c.Burst())
	}
	var futs []*Future
	for i := 0; i < 1000; i++ {
		i := i
		futs = append(futs, c.Delegate(func() any { return i * 2 }))
		if c.Outstanding() > 14 {
			t.Fatalf("outstanding %d exceeds burst", c.Outstanding())
		}
	}
	for i, f := range futs {
		if got := f.Wait(); got != i*2 {
			t.Fatalf("task %d = %v", i, got)
		}
	}
	c.Drain()
	if c.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after drain", c.Outstanding())
	}
}

func TestDelegateBulk(t *testing.T) {
	in := newInboxT(t, 2, 8)
	stop := startWorkers(in.Buffers())
	defer stop()

	slots, err := in.AcquireSlots(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(slots)
	var tasks []Task
	for i := 0; i < 50; i++ {
		i := i
		tasks = append(tasks, func() any { return i })
	}
	out, err := c.DelegateBulkErr(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("bulk returned %d results", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("bulk[%d] = %v", i, v)
		}
	}
}

func TestManyClientsOneWorker(t *testing.T) {
	in := newInboxT(t, 1, 15)
	stop := startWorkers(in.Buffers())

	var wg sync.WaitGroup
	total := int64(0)
	var mu sync.Mutex
	for g := 0; g < 15; g++ {
		slots, err := in.AcquireSlots(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _ := NewClient(slots)
			sum := 0
			for i := 0; i < 500; i++ {
				v := c.Invoke(func() any { return 1 }).(int)
				sum += v
			}
			mu.Lock()
			total += int64(sum)
			mu.Unlock()
		}()
	}
	wg.Wait()
	stop() // worker exit publishes the final stat flush
	if total != 15*500 {
		t.Errorf("total = %d, want %d", total, 15*500)
	}
	if in.Buffers()[0].Executed.Load() != 15*500 {
		t.Errorf("executed = %d", in.Buffers()[0].Executed.Load())
	}
}

func TestResponseBatchingObserved(t *testing.T) {
	// Post several tasks into one buffer before any sweep: a single sweep
	// must answer them all (FFWD's batched responses).
	b, _ := NewBuffer(0, 8)
	in, _ := NewInbox([]*Buffer{b})
	slots, _ := in.AcquireSlots(8, nil)
	c, _ := NewClient(slots)
	for i := 0; i < 8; i++ {
		c.Delegate(func() any { return nil })
	}
	if n := b.Sweep(); n != 8 {
		t.Errorf("sweep answered %d, want 8", n)
	}
	b.SyncStats() // no worker: publish the manual sweep's counts
	if b.Batched.Load() != 8 {
		t.Errorf("Batched = %d, want 8", b.Batched.Load())
	}
	c.Drain()
}

func TestSlotExhaustion(t *testing.T) {
	in := newInboxT(t, 1, 4)
	a, err := in.AcquireSlots(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.AcquireSlots(2, nil); !errors.Is(err, ErrNoSlots) {
		t.Errorf("over-acquisition error = %v, want ErrNoSlots", err)
	}
	if in.FreeSlots() != 1 {
		t.Errorf("FreeSlots = %d, want 1", in.FreeSlots())
	}
	if err := in.ReleaseSlots(a); err != nil {
		t.Fatal(err)
	}
	if in.FreeSlots() != 4 {
		t.Errorf("FreeSlots = %d after release", in.FreeSlots())
	}
	// Double release must fail.
	if err := in.ReleaseSlots(a); err == nil {
		t.Error("double release accepted")
	}
}

func TestAcquireSlotsValidation(t *testing.T) {
	in := newInboxT(t, 1, 4)
	if _, err := in.AcquireSlots(0, nil); err == nil {
		t.Error("acquiring 0 slots accepted")
	}
	if _, err := NewClient(nil); err == nil {
		t.Error("client with no slots accepted")
	}
}

func TestNUMAAwareSlotPreference(t *testing.T) {
	// Workers 0,1,2; the rank function says worker 2 is nearest.
	in := newInboxT(t, 3, 4)
	slots, err := in.AcquireSlots(4, func(worker int) int {
		return (worker + 1) % 3 // worker 2 ranks 0 (best)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range slots {
		if s.buf.Worker() != 2 {
			t.Errorf("slot %d from worker %d, want 2", i, s.buf.Worker())
		}
	}
	// Next acquisition of 6 must spill from worker 2's remaining 0 slots
	// into the next-preferred worker 0.
	slots2, err := in.AcquireSlots(6, func(worker int) int {
		return (worker + 1) % 3
	})
	if err != nil {
		t.Fatal(err)
	}
	fromW0 := 0
	for _, s := range slots2 {
		if s.buf.Worker() == 0 {
			fromW0++
		}
	}
	if fromW0 != 4 {
		t.Errorf("%d slots from worker 0, want 4 (spill order)", fromW0)
	}
}

func TestReleaseInFlightRejected(t *testing.T) {
	b, _ := NewBuffer(0, 2)
	in, _ := NewInbox([]*Buffer{b})
	slots, _ := in.AcquireSlots(1, nil)
	c, _ := NewClient(slots)
	c.Delegate(func() any { return nil }) // never swept: no worker running
	if err := in.ReleaseSlots(slots); err == nil {
		t.Error("release of in-flight slot accepted")
	}
	b.Sweep()
	c.Drain()
	if err := in.ReleaseSlots(slots); err != nil {
		t.Errorf("release after drain failed: %v", err)
	}
}

func TestWorkerStopAnswersLateTask(t *testing.T) {
	in := newInboxT(t, 1, 2)
	slots, _ := in.AcquireSlots(1, nil)
	c, _ := NewClient(slots)

	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		NewWorker(in.Buffers()[0]).Run(stopCh)
		close(done)
	}()
	f := c.Delegate(func() any { return "late" })
	close(stopCh)
	<-done
	// The final sweep in Run must have answered the task (or the regular
	// loop did before stopping).
	if v, ok := f.TryGet(); !ok || v != "late" {
		// One more manual sweep settles any race in this test's timing.
		in.Buffers()[0].Sweep()
		if v2 := f.Wait(); v2 != "late" {
			t.Errorf("late task = %v", v2)
		}
		_ = v
	}
}

func TestStatsCounters(t *testing.T) {
	b, _ := NewBuffer(0, 2)
	if n := b.Sweep(); n != 0 {
		t.Errorf("empty sweep = %d", n)
	}
	b.SyncStats() // no worker: publish the manual sweep's counts
	if b.EmptySweep.Load() != 1 || b.Sweeps.Load() != 1 {
		t.Error("empty sweep not counted")
	}
	in, _ := NewInbox([]*Buffer{b})
	slots, _ := in.AcquireSlots(1, nil)
	c, _ := NewClient(slots)
	c.Delegate(func() any { return nil })
	b.Sweep()
	b.SyncStats()
	if b.Executed.Load() != 1 {
		t.Errorf("Executed = %d", b.Executed.Load())
	}
	if b.Batched.Load() != 0 {
		t.Errorf("single task counted as batched")
	}
	c.Drain()
}

func TestPanickingTaskDoesNotKillWorker(t *testing.T) {
	in := newInboxT(t, 1, 4)
	stop := startWorkers(in.Buffers())
	defer stop()

	slots, _ := in.AcquireSlots(2, nil)
	c, _ := NewClient(slots)
	defer c.Drain()

	f := c.Delegate(func() any { panic("boom") })
	res := f.Wait()
	perr, ok := res.(PanicError)
	if !ok {
		t.Fatalf("result = %#v, want PanicError", res)
	}
	if perr.Value != "boom" {
		t.Errorf("panic value = %v", perr.Value)
	}
	if perr.Error() == "" {
		t.Error("empty error string")
	}
	// The worker must still serve subsequent tasks.
	if got := c.Invoke(func() any { return "alive" }); got != "alive" {
		t.Errorf("worker dead after panic: %v", got)
	}
}
