// Package delegation implements the paper's in-memory message-passing layer,
// modelled on fast fly-weight delegation (FFWD, Roghanchi et al. SOSP'17)
// and extended as Section 6 describes: every worker owns a contiguous
// message buffer of fixed slots; a virtual domain's inbox is composed of the
// buffers of its configured workers; clients obtain *ownership* of slots
// from the inbox (rather than being hard-wired to one worker) and delegate
// asynchronous tasks through them, receiving results via futures.
//
// The FFWD properties carried over:
//
//   - each slot is padded to 128 bytes so two slots never share (adjacent)
//     cache lines and clients never contend with each other;
//   - a slot has a single versioned state word toggled between "free" (even)
//     and "posted" (odd), advanced by exactly one client and claimed by the
//     sweeping worker, so the steady-state protocol needs no contended
//     read-modify-write atomics on the critical path;
//   - a worker buffer holds up to 15 slots, the batch FFWD answers with a
//     single response-line write; the worker drains all posted slots of a
//     buffer in one sweep (response batching).
//
// Hot-path memory discipline (DESIGN.md §10): the steady-state round trip
// allocates nothing and is O(1) per operation. Each slot embeds a recycled
// Future whose completion word carries a monotonically increasing generation
// (gen<<2 | state), so the reserved-slot Post/Await round trip reuses the
// same future across operations without ABA: every completion path — worker
// sweep, seal rescue, crash fail-over — first claims the slot with a CAS on
// its versioned state word and then publishes the result with a CAS on the
// future's generation word, making both execution and completion exactly
// once per generation. Clients track free slots and outstanding tasks in
// fixed-capacity index rings, so posting never scans and never grows.
// Asynchronous Delegate still hands out a one-shot heap future, because its
// caller may hold the handle arbitrarily long after the slot has cycled.
//
// Every post carries one descriptor, Op: an opaque closure (optionally
// read-only, optionally WAL-logged) or a typed key/value op the sweep batches
// through the target structure's kernel.
//
// NUMA-aware slot assignment — giving a client slots in the buffer of the
// worker nearest to it — is the caller's policy: AcquireSlots accepts a
// preference ranking over workers.
//
// Failure model (beyond FFWD, which assumes immortal workers): a future
// completes exactly once, with a value or with a typed error — PanicError
// when the task panicked, ErrWorkerStopped when it never ran. On shutdown a
// worker *seals* its buffer: the seal's final sweep answers everything
// already posted, and a post racing past it is rescued by its own client
// with ErrWorkerStopped, so no client can block forever on a stopping
// worker. A worker crash (a panic escaping the sweep, e.g. injected via
// FaultHook) fails the buffer's posted tasks with a PanicError and is
// reported to the caller of Worker.Run so a supervisor can respawn the
// worker; the buffer stays open for the respawn.
package delegation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"robustconf/internal/obs"
)

// SlotsPerBuffer is the FFWD response-batching width: one worker answers up
// to 15 clients per response line.
const SlotsPerBuffer = 15

// Task is the unit of delegated work. The worker goroutine executes it and
// places the returned value into the task's future.
type Task func() any

// ErrWorkerStopped is delivered through a future when its task was posted
// into a sealed buffer: the owning worker has shut down (or exhausted its
// restart budget after crashing) and will never execute the task. The task
// did NOT run.
var ErrWorkerStopped = errors.New("delegation: worker stopped, task not executed")

// ErrWaitTimeout is returned by Future.WaitTimeout when the deadline expires
// before the task completes. The task may still complete later; the future
// stays valid and can be waited on again.
var ErrWaitTimeout = errors.New("delegation: wait timed out")

// Future completion states, held in the low bits of the future's word.
const (
	futPending   uint64 = 0 // no result yet
	futValue     uint64 = 1 // completed with a value
	futError     uint64 = 2 // completed with a typed error (never ran, or panicked)
	futStateMask uint64 = 3
	futGenShift         = 2
)

// Future is the invocation handle a client holds on a delegated task. A
// future completes exactly once per generation, either with a value (the
// task ran and returned) or with a typed error: PanicError when the task
// panicked, ErrWorkerStopped when it was posted into a sealed buffer and
// never ran.
//
// The word packs a generation counter over the completion state
// (gen<<2 | state). Detached futures — the ones Delegate returns — live and
// die in generation 0 and behave like ordinary one-shot futures. Slot-
// embedded futures are recycled: the owning client bumps the generation on
// every reuse (begin), and completion paths CAS against the exact pending
// word they observed, so a straggling completer from an old generation can
// never touch a newer one (no ABA).
type Future struct {
	word atomic.Uint64 // gen<<2 | futPending/futValue/futError
	val  any
	err  error
	span *obs.Span // lifecycle span on sampled posts; nil almost always

	// Typed result channel for typed ops: written by the completer before
	// the publishing CAS, read by awaitTokenKV after it, so a typed
	// round trip never boxes a uint64 into val. Every completion path of a
	// typed op either writes these or completes with futError, so no reset
	// in begin is needed.
	kvVal uint64
	kvOK  bool
}

// begin recycles the future for its next generation and returns the pending
// word completion paths must CAS against. Only the slot-owning client calls
// it, and only while the slot is free — no completer can hold a reference to
// the new generation yet, so plain stores suffice.
func (f *Future) begin() uint64 {
	w := (f.word.Load()>>futGenShift + 1) << futGenShift
	f.val, f.err, f.span = nil, nil, nil
	f.word.Store(w)
	return w
}

// waitPast blocks until the future's word moves off tok and returns the
// new word, spinning (yielding) first and then sleeping with exponential
// backoff. On a slot-embedded future only the owning client waits, so the
// word cannot move past tok's completion while it does.
func (f *Future) waitPast(tok uint64) uint64 {
	w := f.word.Load()
	for i := 0; w == tok && i < waitSpins; i++ {
		runtime.Gosched()
		w = f.word.Load()
	}
	d := waitSleepMin
	for w == tok {
		time.Sleep(d)
		if d < waitSleepMax {
			d *= 2
		}
		w = f.word.Load()
	}
	return w
}

// awaitWord blocks until the generation identified by tok completes,
// finalises its span, and reports whether it failed.
func (f *Future) awaitWord(tok uint64) (failed bool) {
	failed = f.waitPast(tok)&futStateMask == futError
	f.span.Resolve(failed)
	return failed
}

// awaitToken blocks until the generation identified by tok completes, then
// returns its result.
func (f *Future) awaitToken(tok uint64) (any, error) {
	if f.awaitWord(tok) {
		return nil, f.err
	}
	return f.val, nil
}

// awaitTokenKV is awaitToken for a typed op: it returns the typed result
// without boxing.
func (f *Future) awaitTokenKV(tok uint64) (uint64, bool, error) {
	if f.awaitWord(tok) {
		return 0, false, f.err
	}
	return f.kvVal, f.kvOK, nil
}

// complete publishes a value result for the current generation; used by
// tests and benchmarks that drive futures directly (the worker's sweep
// claims the slot first and CASes the word inline).
func (f *Future) complete(v any) {
	w := f.word.Load()
	if w&futStateMask != futPending {
		return
	}
	f.val = v
	f.span.MarkResponded()
	f.word.CompareAndSwap(w, w|futValue)
}

// completeErr publishes an error result. The generation CAS means lifecycle
// paths that fail futures (seal rescue, crash fail-over) can never clobber a
// result the worker already published, nor touch a later generation.
func (f *Future) completeErr(err error) bool {
	w := f.word.Load()
	if w&futStateMask != futPending {
		return false
	}
	f.err = err
	f.span.MarkResponded()
	return f.word.CompareAndSwap(w, w|futError)
}

// observeResolved finalises the future's lifecycle span the first time a
// waiter observes the completed result (no-op without a span).
func (f *Future) observeResolved() {
	f.span.Resolve(f.word.Load()&futStateMask == futError)
}

// Done reports whether the result is available without blocking.
func (f *Future) Done() bool { return f.word.Load()&futStateMask != futPending }

// Err returns the typed error the future completed with, nil for a pending
// future or a value result.
func (f *Future) Err() error {
	if f.word.Load()&futStateMask == futError {
		return f.err
	}
	return nil
}

// Idle-wait backoff: spin (yielding) this many times, then sleep with
// exponential backoff between polls. Bursting clients normally see their
// oldest future complete within the spin phase; the sleep phase only
// engages on genuinely idle waits, where burning a core on Gosched would
// starve co-scheduled workers.
const (
	waitSpins    = 256
	waitSleepMin = time.Microsecond
	waitSleepMax = 100 * time.Microsecond
)

// block waits until the future completes.
func (f *Future) block() {
	if w := f.word.Load(); w&futStateMask == futPending {
		f.waitPast(w)
	}
}

// result returns the completed future's result in Wait's historical shape:
// the value, or the error as the value (a PanicError came back through Wait
// as a plain value before futures grew an error channel).
func (f *Future) result() any {
	f.observeResolved()
	if f.word.Load()&futStateMask == futError {
		return f.err
	}
	return f.val
}

// Wait blocks until the result is available. An error-completed future
// yields its error as the returned value (use Result or Err for a typed
// error). Waiting spins briefly and then backs off to sleeping, so an idle
// wait does not burn a core.
func (f *Future) Wait() any {
	f.block()
	return f.result()
}

// Result blocks like Wait but separates the two completion channels: the
// task's value, or the typed error (PanicError, ErrWorkerStopped) when the
// task panicked or never ran.
func (f *Future) Result() (any, error) {
	f.block()
	f.observeResolved()
	if f.word.Load()&futStateMask == futError {
		return nil, f.err
	}
	return f.val, nil
}

// WaitTimeout waits up to d for the result. It returns ErrWaitTimeout when
// the deadline expires first; the future remains valid and may still
// complete afterwards.
func (f *Future) WaitTimeout(d time.Duration) (any, error) {
	deadline := time.Now().Add(d)
	return f.waitUnless(func() error {
		if time.Now().After(deadline) {
			return ErrWaitTimeout
		}
		return nil
	})
}

// WaitCtx waits until the result is available or the context is cancelled,
// returning the context's error in the latter case. The future remains
// valid after cancellation.
func (f *Future) WaitCtx(ctx context.Context) (any, error) { return f.waitUnless(ctx.Err) }

// waitUnless waits like block, but gives up with stop's error as soon as
// stop reports one while the future is still pending.
func (f *Future) waitUnless(stop func() error) (any, error) {
	sleep := waitSleepMin
	for i := 0; !f.Done(); i++ {
		if err := stop(); err != nil {
			return nil, err
		}
		if i < waitSpins {
			runtime.Gosched()
			continue
		}
		time.Sleep(sleep)
		if sleep < waitSleepMax {
			sleep *= 2
		}
	}
	return f.Result()
}

// TryGet returns the result if available (an error-completed future yields
// its error as the value, mirroring Wait).
func (f *Future) TryGet() (any, bool) {
	if f.Done() {
		return f.result(), true
	}
	return nil, false
}

// Slot is one message cell in a worker's buffer. Exactly one client owns it
// at a time (enforced by the inbox) and exactly one worker polls it.
//
// The state word is a version counter: odd means posted, even means free,
// and the count itself is the slot's generation. The owning client advances
// free→posted with a plain store (it is the sole writer of a free slot);
// every consumer — worker sweep, seal's final sweep, client-side rescue,
// crash fail-over — claims posted→free with a CAS on the exact odd value it
// observed. A claim that loses the CAS walks away, so a task is executed by
// exactly one sweeper and a stale free from an old generation can never
// clobber a newer post.
type Slot struct {
	_     [128]byte // padding: no false sharing with the previous slot
	state atomic.Uint64
	op    Op
	fut   *Future
	fut0  Future // recycled future for the zero-alloc reserved-slot path
	owner int32  // client id for diagnostics; -1 = unowned
	buf   *Buffer
}

// Op describes one delegated operation — the single shape every post takes.
//
// A closure op (Kern == nil) runs Task on the worker; Read marks it
// read-only, so the sweep does not open the mutating-batch window for it (the
// read-bypass fallback relies on this: a delegated read serializes with
// mutations but must not invalidate concurrent bypass readers).
//
// A typed op (Kern != nil) travels as plain words — Kind (KVGet..KVDelete),
// Key and Val — instead of a closure, so the sweep groups adjacent typed ops
// on the same kernel into one interleaved ExecBatch call and the result
// comes back through the future's typed fields without boxing. Its read flag
// is Kind == KVGet; Read is ignored.
//
// Log, when non-nil on a non-read op and the buffer has a WAL sink, is the
// op's logical record encoder: the worker runs it right after the op, in the
// same sweep, and completes the future only after the pass group-commits —
// success implies durable. Without a sink Log is ignored.
type Op struct {
	Task     Task
	Kern     BatchKernel
	Kind     uint8
	Key, Val uint64
	Read     bool
	Log      func(dst []byte) []byte
}

// posted reports whether the slot currently holds an unclaimed task.
func (s *Slot) posted() bool { return s.state.Load()&1 == 1 }

// claim takes a posted slot for the caller: a CAS of the version from
// posted to free (the loser of a race walks away), then the future's
// pending word, which the caller's completion CAS must match. No slot field
// is read before the CAS wins; afterwards the fields stay stable, because
// the owning client never reposts before observing the completion. Every
// completer — worker sweep, seal rescue, crash fail-over — claims here.
func (s *Slot) claim() (uint64, bool) {
	v := s.state.Load()
	if v&1 == 0 || !s.state.CompareAndSwap(v, v+1) {
		return 0, false
	}
	w := s.fut.word.Load()
	return w, w&futStateMask == futPending
}

// post publishes op into the slot. The client must own the slot and the
// slot must be free; op's read flag is already resolved (Client.classify).
// f is either a fresh detached future (Delegate) or the slot's own recycled
// fut0 with its generation already begun (Post). The sealed check after the
// posted store closes the stop/post race: both sides use sequentially
// consistent atomics, so either the worker's final sweep observes the posted
// slot, or this client observes the seal and rescues its own op with
// ErrWorkerStopped — a post can never dangle.
func (s *Slot) post(op Op, f *Future) {
	s.op, s.fut = op, f
	s.state.Store(s.state.Load() + 1) // release: publishes the op to the worker
	if s.buf.sealed.Load() {
		s.buf.rescue(s)
	}
}

// FaultHook intercepts the worker's poll loop for deterministic fault
// injection (see internal/faultinject). A nil hook — the default — keeps
// the hot path unchanged. BeforeSweep runs outside the task-panic recovery,
// so a panic there simulates a worker crash (recovered by Worker.Run);
// BeforeTask runs inside it, so a panic there becomes the task's
// PanicError. Either may sleep to simulate stalls.
type FaultHook interface {
	BeforeSweep(worker int)
	BeforeTask(worker int)
}

// statFlushEvery is the worker's stat-publication cadence: the sweep loop
// counts into plain worker-local mirrors and stores them to the published
// atomics every statFlushEvery sweeps (and when parking idle, and on worker
// exit) — the same flush discipline internal/obs shards use. The sweep loop
// therefore issues no stat read-modify-write at all; external readers see
// counters that lag a live worker by at most statFlushEvery-1 sweeps.
const statFlushEvery = 64

// Buffer is the contiguous message buffer of one worker.
type Buffer struct {
	worker int // worker id within the domain (index into the inbox)
	slots  []Slot

	// Lifecycle. sealed flips once, on shutdown or restart-budget
	// exhaustion; sealMu serialises every operation that may complete
	// futures outside the worker's own sweep (final sweep, crash
	// fail-over, client-side rescue of a post into a sealed buffer).
	sealed atomic.Bool
	sealMu sync.Mutex

	hook FaultHook // fault injection; nil by default, set before workers run

	probe *obs.WorkerShard // telemetry shard; nil by default, set before workers run

	// wal, when set, adds the sweep's staging step: mutating tasks that
	// carry a record encoder are staged into the worker's log and their
	// futures complete only after the pass group-commits (success implies
	// durable). Nil — the default — skips it.
	wal WALSink

	// arena, when set, is the worker-owned batch allocator recycled at
	// sweep-batch boundaries: after a non-empty local sweep completes (and,
	// on the WAL path, after the batch group-commits and every stashed
	// future is answered) no batch-lifetime allocation is referenced
	// anywhere, so the sweep resets the arena and the next batch reuses the
	// same slabs. Sealed-path sweeps never reset — they may run on foreign
	// goroutines, and Reset is owner-only.
	arena ArenaSink

	_ [64]byte // keep the worker-written state below off the lifecycle fields' line

	// Per-pass scratch: scr for the worker's live sweeps, sealScr for
	// sealed-path sweeps under sealMu. Preallocated so the pass stays
	// allocation-free. Every non-empty pass writes its claim list here, so
	// it must not share a line with sealed, which every post reads.
	scr, sealScr sweepScratch

	// Worker-local stat mirrors: written only by the owning worker's
	// unsealed sweeps, published to the atomics below on the flush cadence.
	// Sealed-path sweeps (Seal's final pass, rescues) do not count here —
	// they may run on non-worker goroutines and shutdown traffic is not
	// steady-state signal.
	nSweeps, nEmpty, nExec, nBatch, sinceFlush uint64
	nBatchSweeps, nKernOps                     uint64

	_ [64]byte // local mirrors and published images on separate lines

	// Published stat images (flushed on the statFlushEvery cadence; see
	// SyncStats). Snapshots lag a live worker by at most one cadence.
	Executed       atomic.Uint64 // tasks executed
	Sweeps         atomic.Uint64 // buffer sweeps (poll rounds)
	EmptySweep     atomic.Uint64 // sweeps that found no posted slot
	Batched        atomic.Uint64 // tasks answered in multi-task sweeps (batching)
	BatchSweeps    atomic.Uint64 // passes that ran at least one kernel run
	BatchKernelOps atomic.Uint64 // typed ops executed through batch kernels
	pubPending     atomic.Int64  // posted-slot gauge at last flush (obs export)

	_ [64]byte // publication words off the flush-cadence stats' line

	// Read-bypass publication words (DESIGN.md §12): a seqlock split into an
	// enter/exit counter pair so concurrent bumpers compose (a single parity
	// word would not). A sweep pass bumps mutEnter before executing its first
	// non-read task and mutExit after the pass; the pair is equal exactly when
	// no mutating batch is in flight. Seal and crash fail-over poison the pair
	// (mutEnter alone, under sealMu, before any future completes), leaving it
	// permanently unequal — a bypass read can never validate across a seal or
	// crash window, and a buffer is never re-armed after either. Invariant:
	// mutEnter >= mutExit, always.
	mutEnter atomic.Uint64
	mutExit  atomic.Uint64

	// Fault stats: cold paths only, kept exact with atomic RMWs.
	Failed  atomic.Uint64 // futures completed with a typed error
	Rescued atomic.Uint64 // posts into a sealed buffer answered with ErrWorkerStopped
}

// NewBuffer allocates a worker buffer with n slots (n ≤ SlotsPerBuffer).
func NewBuffer(worker, n int) (*Buffer, error) {
	if n < 1 || n > SlotsPerBuffer {
		return nil, fmt.Errorf("delegation: %d slots per buffer out of range [1,%d]", n, SlotsPerBuffer)
	}
	b := &Buffer{worker: worker, slots: make([]Slot, n)}
	for i := range b.slots {
		b.slots[i].owner = -1
		b.slots[i].buf = b
	}
	return b, nil
}

// Worker returns the worker id this buffer belongs to.
func (b *Buffer) Worker() int { return b.worker }

// SetFaultHook installs a fault-injection hook. Call before any worker
// polls the buffer; the field is read without synchronisation on the hot
// path (goroutine creation orders the write for workers spawned after it).
func (b *Buffer) SetFaultHook(h FaultHook) { b.hook = h }

// SetProbe installs the worker's telemetry shard. Like SetFaultHook it must
// be called before any worker polls the buffer; the field is read without
// synchronisation on the hot path.
func (b *Buffer) SetProbe(p *obs.WorkerShard) { b.probe = p }

// WALSink is the per-worker write-ahead log handle the sweep drives; it is
// satisfied structurally by internal/wal.WorkerLog so this package stays
// free of a wal import. The contract mirrors a sweep batch: Begin on the
// first staged record of a pass (may block on the domain's quiescence
// gate), StageRecord per logged task, then exactly one of Commit (group
// commit; allowFaults=false on seal-path sweeps suppresses injected commit
// faults) or Abort (crash unwind: discard the batch, release the gate).
type WALSink interface {
	Begin()
	StageRecord(enc func(dst []byte) []byte)
	Commit(allowFaults bool) error
	Abort()
}

// walStash is one executed-but-uncommitted completion, parked between
// execution and the pass's group commit: the future, whose result fields
// the sweep has already written, and the pending word its publishing CAS
// must match.
type walStash struct {
	f *Future
	w uint64
}

// sweepScratch is one pass's worker-local state: the claim list (each
// claimed slot and the pending future word its claim observed), the staging
// arrays a typed run hands to ExecBatch, and the WAL stash of executed-but-
// uncommitted completions.
type sweepScratch struct {
	slot  [SlotsPerBuffer]*Slot
	w     [SlotsPerBuffer]uint64
	kind  [SlotsPerBuffer]uint8
	key   [SlotsPerBuffer]uint64
	val   [SlotsPerBuffer]uint64
	outV  [SlotsPerBuffer]uint64
	outOK [SlotsPerBuffer]bool
	stash [SlotsPerBuffer]walStash
}

// SetWAL installs the worker's log handle, switching this buffer's sweeps
// to the write-ahead logged path. Call before any worker polls the buffer;
// the field is read without synchronisation on the hot path.
func (b *Buffer) SetWAL(l WALSink) { b.wal = l }

// ArenaSink is the slice of the worker arena the sweep drives — just the
// batch-boundary recycle. Satisfied structurally by *mem.Arena so this
// package stays free of a mem import, mirroring WALSink.
type ArenaSink interface {
	Reset()
}

// SetArena installs the worker's batch arena; the sweep resets it after
// every non-empty local pass (post-commit on the WAL path). Call before any
// worker polls the buffer; the field is read without synchronisation on the
// hot path.
func (b *Buffer) SetArena(a ArenaSink) { b.arena = a }

// Typed KV op kinds for the sweep's kernel runs. The values mirror
// index.BatchGet..BatchDelete numerically (a test pins the equality) so the
// sweep can hand its claimed kinds straight to an index batch kernel without
// this package importing internal/index — the same structural-decoupling
// pattern as WALSink and ArenaSink.
const (
	KVGet uint8 = 1 + iota
	KVInsert
	KVUpdate
	KVDelete
)

// BatchKernel is the structural mirror of index.BatchKernel: a target that
// can execute a group of typed point operations with their traversal stages
// interleaved (software prefetch between stages), with effects and results
// identical to serial execution in index order. The sweep hands it maximal
// same-target runs of claimed typed slots.
type BatchKernel interface {
	ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool)
}

// Sealed reports whether the buffer has been sealed.
func (b *Buffer) Sealed() bool { return b.sealed.Load() }

// MutExit loads the exit half of the read-bypass publication pair. A
// validating reader must load MutExit before MutEnter (per buffer): exits
// trail enters, so loading in that order can only under-count exits and the
// equality check stays conservative.
func (b *Buffer) MutExit() uint64 { return b.mutExit.Load() }

// MutEnter loads the enter half of the read-bypass publication pair. Equal
// MutExit/MutEnter values mean no mutating sweep batch was in flight between
// the two loads; a reader that re-reads MutEnter unchanged after its
// structure read knows the read overlapped no mutating batch on this buffer.
func (b *Buffer) MutEnter() uint64 { return b.mutEnter.Load() }

// Pending counts the currently posted, unclaimed slots.
//
// The contract is advisory: the per-slot loads are atomic but the scan is
// not serialised against concurrent posts and sweeps, so a snapshot can miss
// a post that lands behind the scan position or still count a task a sweeper
// is about to claim. Two properties make it safe for its callers anyway:
// it never reports a phantom task (a counted slot really was posted at its
// load), and once all posters have stopped, a drain observed by this scan is
// permanent. The migration quiesce loop relies on exactly that; anything
// wanting a cheap racy gauge (the obs endpoint) should use PendingPublished
// instead.
func (b *Buffer) Pending() int {
	n := 0
	for i := range b.slots {
		if b.slots[i].posted() {
			n++
		}
	}
	return n
}

// PendingPublished returns the posted-slot gauge captured at the worker's
// last stat flush. It is a bounded-staleness snapshot for exporters: unlike
// Pending it costs one atomic load and never walks the slot array from a
// foreign goroutine.
func (b *Buffer) PendingPublished() int { return int(b.pubPending.Load()) }

// SyncStats publishes the worker-local stat mirrors to the exported atomic
// counters and refreshes the pending gauge. The sweep loop calls it on the
// statFlushEvery cadence, before parking idle, and on worker exit. It must
// only be called from the sweeping goroutine — or from any goroutine while
// no worker is polling the buffer (tests that drive Sweep manually).
func (b *Buffer) SyncStats() {
	b.sinceFlush = 0
	b.Sweeps.Store(b.nSweeps)
	b.EmptySweep.Store(b.nEmpty)
	b.Executed.Store(b.nExec)
	b.Batched.Store(b.nBatch)
	b.BatchSweeps.Store(b.nBatchSweeps)
	b.BatchKernelOps.Store(b.nKernOps)
	b.pubPending.Store(int64(b.Pending()))
}

// PanicError is delivered through a future when the delegated task
// panicked. The worker survives: one client's faulty task must not take
// down a virtual domain that other clients depend on.
type PanicError struct {
	Value any // the recovered panic value
}

// Error implements error.
func (p PanicError) Error() string {
	return fmt.Sprintf("delegation: task panicked: %v", p.Value)
}

// runTask executes a task, converting a panic into a PanicError result. The
// fault hook's BeforeTask runs inside the recovery scope, so an injected
// task fault surfaces exactly like a genuine one.
func runTask(task Task, hook FaultHook, worker int) (res any) {
	defer func() {
		if r := recover(); r != nil {
			res = PanicError{Value: r}
		}
	}()
	if hook != nil {
		hook.BeforeTask(worker)
	}
	return task()
}

// runKernel executes the claimed typed run [i,j) of sc through kern with one
// interleaved ExecBatch call over the scratch's staging arrays, converting a
// panic — the kernel's own, or an injected BeforeTask fault's — into a
// PanicError the caller applies to the run's ops. The worker survives, as
// with any task panic; BeforeTask fires once per op in the run so injected
// task-fault budgets drain at one per op whatever the run length.
func (b *Buffer) runKernel(kern BatchKernel, sc *sweepScratch, i, j int, hook FaultHook) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = PanicError{Value: r}
		}
	}()
	if hook != nil {
		for g := i; g < j; g++ {
			hook.BeforeTask(b.worker)
		}
	}
	kern.ExecBatch(sc.kind[i:j], sc.key[i:j], sc.val[i:j], sc.outV[i:j], sc.outOK[i:j])
	return nil
}

// failFuture completes a claimed slot's future (pending word w) with err and
// reports whether it published.
func (b *Buffer) failFuture(f *Future, w uint64, err error) bool {
	f.err = err
	f.span.MarkResponded()
	if !f.word.CompareAndSwap(w, w|futError) {
		return false
	}
	b.Failed.Add(1)
	return true
}

// Sweep executes all currently posted tasks in the buffer, in slot order,
// and reports how many it ran. This is the worker's poll body: one pass over
// the buffer detects posted toggles and answers them as a batch. A panicking
// task yields a PanicError result instead of killing the worker; a panic
// out of the hook's BeforeSweep escapes to Worker.Run as a worker crash.
// On a sealed buffer the pass runs under the seal lock so it cannot race
// client-side rescues.
func (b *Buffer) Sweep() int {
	if b.sealed.Load() {
		b.sealMu.Lock()
		defer b.sealMu.Unlock()
		// No probe or local stats on the sealed path: seal/rescue sweeps may
		// run on non-worker goroutines, which must not touch the worker's
		// unsynchronised mirrors.
		return b.sweep(nil, nil, false)
	}
	if h := b.hook; h != nil {
		h.BeforeSweep(b.worker)
	}
	probe := b.probe
	if probe == nil {
		return b.sweep(b.hook, nil, true)
	}
	t0 := probe.SweepBegin()
	n := b.sweep(b.hook, probe, true)
	probe.SweepEnd(t0, n)
	return n
}

// sweep is the one sweep body (DESIGN.md §15): a pass over the buffer in
// three phases.
//
//  1. Claim: every posted slot is claimed (Slot.claim) into the claim list
//     with the pending future word its completion CAS must match.
//  2. Execute, in slot order: a maximal run of typed slots sharing a kernel
//     goes through one interleaved ExecBatch call, which overlaps the run's
//     traversal cache misses (a run holds at most SlotsPerBuffer ops by
//     construction); a closure task runs in place as a run of one. The
//     mutating window opens just before the first run holding a non-read
//     op, so read-only passes never invalidate concurrent bypass readers.
//  3. Answer: results publish with a CAS on each future's word. With a WAL
//     sink, Begin runs after the claim phase (it takes the domain quiescence
//     gate's read side, which every execution must hold, logged or not);
//     logged mutations stage their records in execution order and park in
//     the stash until the end-of-pass group commit, so a client observes
//     success only once its record is durable (DESIGN.md §13).
//
// Local sweeps run with the worker's hook and probe over the worker's
// scratch and count into its stat mirrors. Sealed-path sweeps (Seal, and
// Sweep on a sealed buffer) hold sealMu and pass a nil hook (shutdown must
// not re-inject faults), a nil probe and local=false; they use the second
// scratch, so a final sweep racing a straggling live pass never shares an
// array with it.
//
// A panic unwinding the pass (an injected worker kill, a commit fault, a
// panicking record encoder) aborts the log batch and fails every stashed
// and claimed-but-unanswered future with a PanicError — FailPending cannot
// see claimed slots — then re-raises to Worker.Run's crash recovery. Those
// tasks may have executed, but their effects were never committed, so after
// recovery replays the committed prefix the client's retry re-converges.
func (b *Buffer) sweep(hook FaultHook, probe *obs.WorkerShard, local bool) (n int) {
	sc := &b.scr
	if !local {
		sc = &b.sealScr
	}
	nc := 0
	for i := range b.slots {
		if w, ok := b.slots[i].claim(); ok {
			sc.slot[nc], sc.w[nc] = &b.slots[i], w
			nc++
		}
	}
	if nc == 0 {
		if local {
			b.countPass(0, 0)
		}
		return 0
	}
	logging := false
	ns, done, kernOps := 0, 0, 0
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if logging {
			b.wal.Abort()
		}
		perr := PanicError{Value: r}
		for i := 0; i < ns; i++ {
			b.failFuture(sc.stash[i].f, sc.stash[i].w, perr)
			sc.stash[i] = walStash{}
		}
		// Nil entries are ops a partially answered run already published.
		for g := done; g < nc; g++ {
			if s := sc.slot[g]; s != nil {
				b.failFuture(s.fut, sc.w[g], perr)
				sc.slot[g] = nil
			}
		}
		panic(r)
	}()
	if b.wal != nil {
		b.wal.Begin()
		logging = true
	}
	mutating := false
	for done < nc {
		s := sc.slot[done]
		kern := s.op.Kern
		j := done + 1
		if kern != nil {
			for j < nc && sc.slot[j].op.Kern == kern {
				j++
			}
		}
		for g := done; g < j; g++ {
			if !mutating && !sc.slot[g].op.Read {
				// First run holding a non-read op: open the mutating window
				// before it executes so a concurrent bypass reader cannot
				// validate over its effects.
				b.mutEnter.Add(1)
				mutating = true
			}
			sp := sc.slot[g].fut.span // nil unless the post was trace-sampled
			sp.MarkSwept(b.worker)
			sp.MarkExecStart()
		}
		var tt int64
		if probe != nil {
			// A kernel run times as one probe task (its ops genuinely
			// overlap); the per-op count is BatchKernelOps.
			tt = probe.TaskBegin()
		}
		var err error
		if kern == nil {
			res := runTask(s.op.Task, hook, b.worker)
			s.op.Task = nil
			if pe, ok := res.(PanicError); ok {
				err = pe
			} else {
				s.fut.val = res
			}
		} else {
			for g := done; g < j; g++ {
				op := &sc.slot[g].op
				sc.kind[g], sc.key[g], sc.val[g] = op.Kind, op.Key, op.Val
				sc.outV[g], sc.outOK[g] = 0, false
			}
			err = b.runKernel(kern, sc, done, j, hook)
			kernOps += j - done
		}
		if probe != nil {
			probe.TaskEnd(tt)
		}
		// Answer the run. Results are written into the futures now and
		// published by the word CAS, here or after the group commit.
		for g := done; g < j; g++ {
			sg := sc.slot[g]
			f, w := sg.fut, sc.w[g]
			if kern != nil {
				f.kvVal, f.kvOK = sc.outV[g], sc.outOK[g]
			}
			f.span.MarkExecEnd()
			f.span.MarkResponded()
			switch {
			case err != nil:
				b.failFuture(f, w, err)
			case logging && sg.op.Log != nil && !sg.op.Read:
				b.wal.StageRecord(sg.op.Log)
				sc.stash[ns] = walStash{f: f, w: w}
				ns++
			default:
				f.word.CompareAndSwap(w, w|futValue)
			}
			sc.slot[g] = nil
			n++
		}
		done = j
	}
	if logging {
		// Group commit: injected commit faults only fire on live worker
		// sweeps (hook != nil); the seal path's final sweep must not crash
		// the sealing goroutine.
		err := b.wal.Commit(hook != nil)
		logging = false
		for i := 0; i < ns; i++ {
			st := sc.stash[i]
			if err != nil {
				b.failFuture(st.f, st.w, PanicError{Value: err})
			} else {
				st.f.word.CompareAndSwap(st.w, st.w|futValue)
			}
			sc.stash[i] = walStash{}
		}
		ns = 0
	}
	if mutating {
		b.mutExit.Add(1) // close the mutating window: pair balanced again
	}
	if local {
		if b.arena != nil {
			// Batch boundary: the group commit is done and every future
			// answered, so no arena-backed batch memory is live.
			b.arena.Reset()
		}
		b.countPass(n, kernOps)
	}
	return n
}

// countPass records one local pass in the worker-local stat mirrors and
// publishes them on the statFlushEvery cadence.
func (b *Buffer) countPass(n, kernOps int) {
	b.nSweeps++
	b.sinceFlush++
	if n == 0 {
		b.nEmpty++
	} else {
		b.nExec += uint64(n)
		if n > 1 {
			b.nBatch += uint64(n)
		}
	}
	if kernOps > 0 {
		b.nBatchSweeps++
		b.nKernOps += uint64(kernOps)
	}
	if b.sinceFlush >= statFlushEvery {
		b.SyncStats()
	}
}

// Seal marks the buffer closed and runs a final sweep that executes every
// task already posted, so no future delegated before shutdown dangles. Any
// task posted after the seal is completed with ErrWorkerStopped by its own
// client (see Slot.post). Seal is idempotent and safe to call from a
// supervisor goroutine after the worker has exited; it returns the number
// of tasks the final sweep executed.
func (b *Buffer) Seal() int {
	b.sealMu.Lock()
	defer b.sealMu.Unlock()
	// Poison the read-bypass publication pair before the final sweep runs a
	// single task or completes a single future: the unmatched enter leaves
	// the pair permanently unequal, so no bypass read that overlaps (or
	// follows) the shutdown window can ever validate. Idempotent calls just
	// deepen the imbalance.
	b.mutEnter.Add(1)
	b.sealed.Store(true)
	return b.sweep(nil, nil, false)
}

// FailPending completes every posted, unclaimed task with err without
// executing it, and claims the slots. The worker crash path uses it so the
// tasks that were in the buffer when the worker died are answered with a
// PanicError instead of waiting for a respawn that may never come. Returns
// the number of futures failed.
func (b *Buffer) FailPending(err error) int {
	b.sealMu.Lock()
	defer b.sealMu.Unlock()
	// Crash fail-over poisons the publication pair before any future is
	// failed, exactly like Seal: the worker may have died with structure
	// state only it could vouch for, so bypass on this buffer is disabled
	// for good — a respawned worker never re-arms it.
	b.mutEnter.Add(1)
	n := 0
	for i := range b.slots {
		s := &b.slots[i]
		if w, ok := s.claim(); ok {
			s.op.Task = nil
			if b.failFuture(s.fut, w, err) {
				n++
			}
		}
	}
	return n
}

// rescue answers the calling client's own post into a sealed buffer. The
// seal lock orders it against the final sweep: if the sweep already claimed
// the task there is nothing to do, otherwise the task never ran and its
// future completes with ErrWorkerStopped.
func (b *Buffer) rescue(s *Slot) {
	b.sealMu.Lock()
	defer b.sealMu.Unlock()
	if w, ok := s.claim(); ok {
		s.op.Task = nil
		if b.failFuture(s.fut, w, ErrWorkerStopped) {
			b.Rescued.Add(1)
		}
	}
}

// Inbox composes the message buffers of a domain's workers and hands slot
// ownership to clients. Acquisition and release are off the critical path
// and guarded by a mutex; posting and polling are lock-free.
type Inbox struct {
	buffers []*Buffer

	mu        sync.Mutex
	nextOwner int32
	freeCount int
}

// ErrNoSlots is returned when the inbox cannot satisfy a slot acquisition:
// the configured workers bound the number of concurrently served clients.
var ErrNoSlots = errors.New("delegation: inbox has no free slots")

// NewInbox builds an inbox over the given worker buffers.
func NewInbox(buffers []*Buffer) (*Inbox, error) {
	if len(buffers) == 0 {
		return nil, fmt.Errorf("delegation: inbox needs at least one buffer")
	}
	in := &Inbox{buffers: buffers}
	for _, b := range buffers {
		in.freeCount += len(b.slots)
	}
	return in, nil
}

// Buffers returns the composed worker buffers.
func (in *Inbox) Buffers() []*Buffer { return in.buffers }

// FreeSlots returns the number of currently unowned slots.
func (in *Inbox) FreeSlots() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.freeCount
}

// AcquireSlots grants ownership of n slots to a new client. The optional
// rank function orders workers by preference (lower is better) — the runtime
// passes NUMA distance from the client's CPU to each worker's CPU, so slots
// come from the nearest worker's buffer first (Section 6's locality-aware
// slot assignment). Slots may span several buffers when the preferred one
// is exhausted.
func (in *Inbox) AcquireSlots(n int, rank func(worker int) int) ([]*Slot, error) {
	if n < 1 {
		return nil, fmt.Errorf("delegation: acquiring %d slots", n)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.freeCount < n {
		return nil, ErrNoSlots
	}
	order := make([]int, len(in.buffers))
	for i := range order {
		order[i] = i
	}
	if rank != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return rank(in.buffers[order[a]].worker) < rank(in.buffers[order[b]].worker)
		})
	}
	owner := in.nextOwner
	in.nextOwner++
	var out []*Slot
	for _, bi := range order {
		b := in.buffers[bi]
		for i := range b.slots {
			if len(out) == n {
				break
			}
			if b.slots[i].owner == -1 {
				b.slots[i].owner = owner
				out = append(out, &b.slots[i])
			}
		}
		if len(out) == n {
			break
		}
	}
	in.freeCount -= n
	return out, nil
}

// ReleaseSlots returns slot ownership to the inbox. All slots must be free
// (no posted task in flight).
func (in *Inbox) ReleaseSlots(slots []*Slot) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, s := range slots {
		if s.posted() {
			return fmt.Errorf("delegation: releasing slot with task in flight")
		}
		if s.owner == -1 {
			return fmt.Errorf("delegation: releasing unowned slot")
		}
		s.owner = -1
		in.freeCount++
	}
	return nil
}

// Client delegates tasks through slots it owns, keeping up to burst tasks
// outstanding (the paper's bursting delegation mode; Section 6). A Client is
// not safe for concurrent use — it models one application thread, as in FFWD.
//
// Bookkeeping is O(1) and allocation-free: free slots live on a fixed index
// stack, outstanding delegations in a fixed-capacity FIFO ring — there is no
// slot scan, no in-flight list walk, and no slice growth no matter how long
// the client lives.
type Client struct {
	slots []*Slot
	free  []int32     // LIFO stack of free slot indices
	ring  []pendingOp // FIFO ring of outstanding delegations
	head  int         // ring index of the oldest outstanding delegation
	n     int         // outstanding delegations
	probe *obs.ClientShard
}

type pendingOp struct {
	slot int32
	fut  *Future
}

// NewClient wraps owned slots into a delegating client. The burst size is
// len(slots): the paper's experiments use 14.
func NewClient(slots []*Slot) (*Client, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("delegation: client needs at least one slot")
	}
	c := &Client{
		slots: slots,
		free:  make([]int32, len(slots)),
		ring:  make([]pendingOp, len(slots)),
	}
	for i := range slots {
		// Reverse order so slot 0 pops first, preserving the NUMA-ranked
		// acquisition order on the fast path.
		c.free[i] = int32(len(slots) - 1 - i)
	}
	return c, nil
}

// SetProbe installs the client's telemetry shard. The Client is single-
// threaded by contract, so the shard shares its owner's serial execution.
func (c *Client) SetProbe(p *obs.ClientShard) { c.probe = p }

// Outstanding returns the number of Delegate-tracked tasks in flight; ops
// posted through Reserve/Post are tracked by their handles instead.
func (c *Client) Outstanding() int { return c.n }

// harvestOldest retires the oldest outstanding delegation: waits for its
// future and returns its slot to the free stack. The completer has already
// advanced the slot's version to free before publishing the result, so
// observing the future settles slot ownership too.
func (c *Client) harvestOldest() *Future {
	op := &c.ring[c.head]
	f := op.fut
	f.block()
	c.free = append(c.free, op.slot)
	op.fut = nil
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
	c.n--
	return f
}

// InvokeHandle identifies one in-flight reserved-slot post: the slot whose
// embedded future carries the result and the generation token to await.
// It is a value, not a pointer — pipelined callers keep handles in their own
// storage, so the burst path stays allocation-free.
type InvokeHandle struct {
	slot int32
	tok  uint64
}

// Reserve pops a free slot for a zero-allocation Post. When no slot is free
// it retires the oldest Delegate-tracked task — the throughput-maximising
// bursting mode of Section 6; when every slot is held by an un-awaited
// handle it reports false — the caller owns those handles and must Await
// one to free a slot.
func (c *Client) Reserve() (int32, bool) {
	for len(c.free) == 0 {
		if c.n == 0 {
			return 0, false
		}
		if c.probe != nil {
			c.probe.BurstWait()
		}
		f := c.harvestOldest()
		f.observeResolved()
	}
	i := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return i, true
}

// classify resolves op's read flag — a typed op reads exactly when it is a
// KVGet — and counts a read for the signal sampler's write fraction; the
// read/write split is known here and nowhere cheaper.
func (c *Client) classify(op Op) Op {
	if op.Kern != nil {
		op.Read = op.Kind == KVGet
	}
	if op.Read && c.probe != nil {
		c.probe.CountRead()
	}
	return op
}

// Post posts op into slot i, obtained from Reserve, without waiting and
// returns the handle to Await (closure op) or AwaitKV (typed op) later. The
// slot's embedded future is recycled for this generation and never
// escapes, so the round trip allocates nothing, and a client can keep
// several ops in flight and synchronise once per dependency barrier. The
// probe hands out a recycled span (PostRecycled): the embedded future
// resolves its span exactly once per generation.
func (c *Client) Post(i int32, op Op) InvokeHandle {
	s := c.slots[i]
	tok := s.fut0.begin()
	op = c.classify(op)
	if c.probe != nil {
		s.fut0.span = c.probe.PostRecycled()
	}
	s.post(op, &s.fut0)
	return InvokeHandle{slot: i, tok: tok}
}

// Await blocks until the handle's closure op completes, frees its slot, and
// returns the result: the value, or the typed error — PanicError when the
// task panicked, ErrWorkerStopped when the buffer was sealed before it ran.
// Each handle must be awaited exactly once; handles may be awaited in any
// order (each lives in its own slot's embedded future).
func (c *Client) Await(h InvokeHandle) (any, error) {
	v, err := c.slots[h.slot].fut0.awaitToken(h.tok)
	c.free = append(c.free, h.slot)
	return v, err
}

// AwaitKV is Await for a typed op: it returns the kernel's value/found pair.
func (c *Client) AwaitKV(h InvokeHandle) (uint64, bool, error) {
	v, ok, err := c.slots[h.slot].fut0.awaitTokenKV(h.tok)
	c.free = append(c.free, h.slot)
	return v, ok, err
}

// Done reports, without blocking or freeing the slot, whether the handle's
// op has completed. Valid only between Post and Await — the embedded
// future's word equals the handle's token exactly while that generation is
// pending.
func (c *Client) Done(h InvokeHandle) bool {
	return c.slots[h.slot].fut0.word.Load() != h.tok
}

// FreeSlots returns how many of the client's slots are currently free
// (neither Delegate-tracked nor held by a reserved handle).
func (c *Client) FreeSlots() int { return len(c.free) }

// Delegate posts op into a free owned slot and returns its future, first
// retiring the oldest outstanding task when the burst is full. The future is
// detached (heap-allocated, generation 0): the caller may hold it for as
// long as it likes, independent of slot reuse. It panics when every slot is
// held by an un-awaited reserved handle; Await one first.
func (c *Client) Delegate(op Op) *Future {
	i, ok := c.Reserve()
	if !ok {
		panic("delegation: no free slots and none outstanding; await reserved handles first")
	}
	f := &Future{}
	op = c.classify(op)
	if c.probe != nil {
		// Post counts the delegation and, on sampled posts, mints the
		// lifecycle span; the slot's release store publishes it (via the
		// future) to the worker alongside the op.
		f.span = c.probe.Post()
	}
	c.slots[i].post(op, f)
	tail := c.head + c.n
	if tail >= len(c.ring) {
		tail -= len(c.ring)
	}
	c.ring[tail] = pendingOp{slot: i, fut: f}
	c.n++
	return f
}

// Drain waits for every Delegate-tracked task to finish, frees the pending
// window, and returns the first typed error among them, so a caller shutting
// down can tell "all work done" from "work abandoned by a stopped or crashed
// worker". Call before releasing slots.
func (c *Client) Drain() error {
	var firstErr error
	for c.n > 0 {
		f := c.harvestOldest()
		if _, err := f.Result(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.probe != nil {
		c.probe.Flush()
	}
	return firstErr
}

// Slots exposes the owned slots (for release back to the inbox).
func (c *Client) Slots() []*Slot { return c.slots }

// Worker runs the poll loop over one buffer until stop is closed.
// A worker is bound to exactly one buffer, mirroring FFWD's design.
type Worker struct {
	buf *Buffer
}

// NewWorker wraps a buffer into a pollable worker.
func NewWorker(buf *Buffer) *Worker { return &Worker{buf: buf} }

// Adaptive idle policy: after idleSpinSweeps consecutive empty sweeps the
// worker stops yield-spinning and parks in short sleeps with exponential
// backoff, capped at idleSleepMax — so an idle domain costs sleeps instead
// of a burning core. The first non-empty sweep resets the policy, which
// bounds the requickening latency of a post into an idle buffer by one
// sleep period (≤ idleSleepMax).
const (
	idleSpinSweeps = 128
	idleSleepMin   = time.Microsecond
	idleSleepMax   = 100 * time.Microsecond
)

// Run polls the buffer until stop is closed or the worker crashes. Empty
// sweeps first yield to the scheduler (so co-scheduled goroutines make
// progress on small machines) and then back off to parked sleeps under the
// adaptive idle policy, publishing stats before the first park.
//
// On a clean stop Run seals the buffer — the seal's final sweep answers
// every task posted before the seal, and a task racing past it is rescued
// with ErrWorkerStopped by its own client — then returns nil.
//
// A panic escaping the sweep (a fault-injected worker kill, or a bug in
// the protocol itself; task panics never escape, runTask converts them) is
// recovered here: every task posted in the buffer at crash time completes
// with a PanicError, and the crash is returned so a supervisor can respawn
// the worker. The buffer is NOT sealed on a crash — it keeps accepting
// posts for the respawned worker.
func (w *Worker) Run(stop <-chan struct{}) (crash error) {
	defer func() {
		// Publish the stat mirrors and the telemetry shard's local mirror:
		// this deferred func runs on the worker goroutine on both the clean
		// and crash exits.
		w.buf.SyncStats()
		if p := w.buf.probe; p != nil {
			p.Flush()
		}
		if r := recover(); r != nil {
			err := PanicError{Value: r}
			w.buf.FailPending(err)
			crash = err
		}
	}()
	idle := 0
	sleep := idleSleepMin
	for {
		if n := w.buf.Sweep(); n > 0 {
			idle, sleep = 0, idleSleepMin
			continue
		}
		select {
		case <-stop:
			w.buf.Seal()
			return nil
		default:
		}
		idle++
		switch {
		case idle < idleSpinSweeps:
			runtime.Gosched()
		case idle == idleSpinSweeps:
			w.buf.SyncStats() // publish before parking; flushes stall while asleep
			time.Sleep(sleep)
		default:
			time.Sleep(sleep)
			if sleep < idleSleepMax {
				sleep *= 2
			}
		}
	}
}
