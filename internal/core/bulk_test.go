package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"robustconf/internal/delegation"
)

// Bulk-bursting error paths: a panicking op mid-bulk, posts rescued from a
// sealed buffer mid-bulk, and session teardown with bulk work outstanding.

// submitBulk is the bulk-bursting mode over Submit: every op is delegated
// under one synchronisation phase, then every future awaited. Results hold
// each op's value in order (nil where it failed); the error is the first
// typed error among them.
func submitBulk(s *Session, structure string, ops []func(ds any) any) ([]any, error) {
	futs := make([]*delegation.Future, len(ops))
	for i, op := range ops {
		f, err := s.Submit(Task{Structure: structure, Op: op})
		if err != nil {
			return nil, err
		}
		futs[i] = f
	}
	out := make([]any, len(ops))
	var firstErr error
	for i, f := range futs {
		v, err := f.Result()
		out[i] = v
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

func TestBulkBurstPartialPanic(t *testing.T) {
	cfg, structures := smallConfig(2)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 4)
	defer s.Close()

	ops := make([]func(ds any) any, 5)
	for i := range ops {
		i := i
		if i == 2 {
			ops[i] = func(any) any { panic("bulk op bug") }
			continue
		}
		ops[i] = func(any) any { return i * 10 }
	}
	out, err := submitBulk(s, "tree", ops)
	var pe delegation.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("bulk error = %v, want PanicError", err)
	}
	if pe.Value != "bulk op bug" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(out) != len(ops) {
		t.Fatalf("results length = %d", len(out))
	}
	for i, v := range out {
		if i == 2 {
			if v != nil {
				t.Errorf("panicked op result = %v, want nil", v)
			}
			continue
		}
		if v != i*10 {
			t.Errorf("op %d result = %v, want %d", i, v, i*10)
		}
	}
	// The domain keeps serving: the panic poisoned one task, not the worker.
	if v, err := s.Invoke(Task{Structure: "tree", Op: func(any) any { return 7 }}); err != nil || v != 7 {
		t.Fatalf("post-panic invoke = %v, %v", v, err)
	}
}

func TestBulkBurstIntoSealedBuffer(t *testing.T) {
	cfg, structures := smallConfig(2)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := rt.NewSession(0, 2)
	// Acquire slots before the stop so the bulk's posts hit the sealed
	// buffer (the rescue path), not session setup.
	if _, err := s.Invoke(Task{Structure: "tree", Op: func(any) any { return 1 }}); err != nil {
		t.Fatal(err)
	}
	rt.Stop()

	// Burst 2, bulk of 4: the bulk must cycle rescued slots mid-bulk and
	// resolve every op with ErrWorkerStopped instead of hanging.
	ran := atomic.Int32{}
	ops := make([]func(ds any) any, 4)
	for i := range ops {
		ops[i] = func(any) any { ran.Add(1); return 1 }
	}
	done := make(chan struct{})
	var out []any
	var bulkErr error
	go func() {
		defer close(done)
		out, bulkErr = submitBulk(s, "tree", ops)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("bulk submission hung on a sealed buffer")
	}
	if !errors.Is(bulkErr, delegation.ErrWorkerStopped) {
		t.Fatalf("bulk error = %v, want ErrWorkerStopped", bulkErr)
	}
	for i, v := range out {
		if v != nil {
			t.Errorf("op %d result = %v, want nil (never ran)", i, v)
		}
	}
	if ran.Load() != 0 {
		t.Errorf("%d ops executed after seal", ran.Load())
	}
	if err := s.Close(); err != nil && !errors.Is(err, delegation.ErrWorkerStopped) {
		t.Errorf("Close = %v", err)
	}
	if stats := rt.Stats(); stats[0].Rescued == 0 {
		t.Error("rescued-post counter not incremented")
	}
}

func TestCloseWithBulkOutstanding(t *testing.T) {
	cfg, structures := smallConfig(2)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 4)

	// Fill the burst window with slow detached futures and a queue of async
	// statements, then Close without waiting on any of them: Close must
	// drain everything, run it exactly once and release the slots cleanly.
	ran := atomic.Int32{}
	slow := Task{Structure: "tree", Op: func(any) any {
		time.Sleep(200 * time.Microsecond)
		ran.Add(1)
		return nil
	}}
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(slow); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.SubmitAsync("tree", func(ds, arg any) any {
			time.Sleep(200 * time.Microsecond)
			ran.Add(1)
			return nil
		}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close with outstanding bulk = %v", err)
	}
	if got := ran.Load(); got != 7 {
		t.Errorf("outstanding tasks run = %d, want 7", got)
	}
	// The slots came back: a fresh session can take the full burst again.
	s2, err := rt.NewSession(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Invoke(Task{Structure: "tree", Op: func(any) any { return 1 }}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
