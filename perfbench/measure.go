package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch anchors every benchmark timestamp: now() is monotonic nanoseconds
// since process start, the same shape as the obs layer's span stamps.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// windowSeconds is the length of the windows every measured phase is cut
// into. Throughput and each latency percentile are computed per window, and
// a run reports the median over the windows of all its episodes.
const windowSeconds = 0.25

// phase is one timed measurement interval, cut into windows of equal length.
type phase struct{ start, end, window int64 }

func newPhase(seconds float64) phase {
	n := max(1, int64(math.Round(seconds/windowSeconds)))
	w := int64(seconds * 1e9 / float64(n))
	p := phase{start: now(), window: w}
	p.end = p.start + n*w
	return p
}

func (p phase) windows() int { return int((p.end - p.start) / p.window) }

// Latency classes.
const (
	classRead = iota
	classWrite
	classes
)

// meter is one client goroutine's tally for a phase: completed operations
// and latency samples per window and class. Single-owner; merged after the
// clients stop.
type meter struct {
	p    phase
	done []int64
	lat  [][classes][]uint32 // ns, saturating
}

func newMeter(p phase) *meter {
	return &meter{p: p, done: make([]int64, p.windows()), lat: make([][classes][]uint32, p.windows())}
}

// record counts one completed operation of the class finishing at t after
// taking d ns, in the window it finished in; operations completing after
// the phase ended are not counted.
func (m *meter) record(class int, t, d int64) {
	if t >= m.p.end {
		return
	}
	w := int((t - m.p.start) / m.p.window)
	m.done[w]++
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	m.lat[w][class] = append(m.lat[w][class], uint32(d))
}

// summary is the merged view of a phase over all its clients, with each
// window's latencies per class sorted and the steal time the host reported
// for each window.
type summary struct {
	p     phase
	ops   int64
	done  []int64
	lat   [][classes][]uint32
	steal []int64
}

func merge(ms []*meter, steal []int64) *summary {
	p := ms[0].p
	s := &summary{p: p, done: make([]int64, p.windows()), lat: make([][classes][]uint32, p.windows()), steal: steal}
	for _, m := range ms {
		for w := range s.done {
			s.ops += m.done[w]
			s.done[w] += m.done[w]
			for c := 0; c < classes; c++ {
				s.lat[w][c] = append(s.lat[w][c], m.lat[w][c]...)
			}
		}
	}
	for w := range s.lat {
		for c := 0; c < classes; c++ {
			l := s.lat[w][c]
			sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		}
	}
	return s
}

// rate is operations completed per second over the whole phase.
func (s *summary) rate() float64 { return float64(s.ops) * 1e9 / float64(s.p.end-s.p.start) }

// all is every latency sample of the given classes over the whole phase,
// sorted.
func (s *summary) all(cs ...int) []uint32 {
	var out []uint32
	for w := range s.lat {
		for _, c := range cs {
			out = append(out, s.lat[w][c]...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantiles are the latency quantiles a window is reduced to.
var quantiles = [...]struct {
	q   float64
	tag string
}{{0.5, "p50"}, {0.9, "p90"}, {0.99, "p99"}}

// window is one window reduced to what the report needs, so an episode's
// raw samples are dropped before the next episode's heap is measured: its
// throughput, its steal time and, for each class it holds samples of, the
// latency quantiles.
type window struct {
	rate  float64
	steal int64
	n     [classes]int
	us    [classes][len(quantiles)]float64
}

func (s *summary) reduce() []window {
	ws := make([]window, len(s.done))
	perWindow := float64(s.p.window) / 1e9
	for i, done := range s.done {
		w := &ws[i]
		w.rate = float64(done) / perWindow
		w.steal = s.steal[i]
		for c := 0; c < classes; c++ {
			l := s.lat[i][c]
			w.n[c] = len(l)
			for j, q := range quantiles {
				w.us[c][j] = quantileSorted(l, q.q) / 1e3
			}
		}
	}
	return ws
}

// quantileSorted interpolates the q-quantile of sorted samples, so the
// result moves continuously with the data instead of snapping to one sample.
func quantileSorted[T uint32 | float64](l []T, q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	pos := q * float64(len(l)-1)
	i := int(pos)
	if i+1 >= len(l) {
		return float64(l[len(l)-1])
	}
	f := pos - float64(i)
	return float64(l[i])*(1-f) + float64(l[i+1])*f
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianInt64 is the median of int64 durations, as float64.
func medianInt64(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stealTicks reads the steal time of all CPUs in clock ticks: time the
// hypervisor ran other guests on this machine's virtual CPUs. It reads 0
// where the kernel does not report it.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// procCounters is a point-in-time reading of process-wide counters: kernel
// I/O accounting, CPU time and Go runtime allocation and GC time.
type procCounters struct {
	wall                     int64
	syscr, syscw, writeBytes int64
	ioOK                     bool
	cpu                      time.Duration // user + system
	allocs                   uint64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procCounters {
	c := procCounters{wall: now()}
	if f, err := os.Open("/proc/self/io"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				continue
			}
			switch k {
			case "syscr":
				c.syscr = n
				c.ioOK = true
			case "syscw":
				c.syscw = n
			case "write_bytes":
				c.writeBytes = n
			}
		}
		f.Close()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	metrics.Read(runtimeSamples)
	if runtimeSamples[0].Value.Kind() == metrics.KindUint64 {
		c.allocs = runtimeSamples[0].Value.Uint64()
	}
	if runtimeSamples[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = runtimeSamples[1].Value.Float64()
		c.totalCPU = runtimeSamples[2].Value.Float64()
	}
	return c
}

// procMetrics fills the proc.* and go.* per-layer metrics from two
// readings bracketing a phase that completed ops operations.
func procMetrics(o *outcome, a, b procCounters, ops int64) {
	n := float64(ops)
	if a.ioOK && b.ioOK {
		o.values["proc.syscalls_per_op"] = ratio(float64(b.syscr-a.syscr+b.syscw-a.syscw), n)
	}
	wall := float64(b.wall - a.wall)
	o.values["proc.cpu_util"] = ratio(float64(b.cpu-a.cpu), wall*float64(runtime.NumCPU()))
	o.values["go.allocs_per_op"] = ratio(float64(b.allocs-a.allocs), n)
	o.values["go.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled scratch does not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// hostMeta describes the host a result was measured on. host_id hashes the
// hardware and kernel fields, so results from different hosts (or kernels)
// never compare as if they came from one.
func hostMeta(e *env) (map[string]any, error) {
	m := map[string]any{
		"workload":   e.workload,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"trace":      e.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
	m["cpu_model"] = cpuModel()
	caches := cacheSizes()
	m["l2"], m["l3"] = caches[2], caches[3]
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	m["kernel"] = strings.TrimSpace(string(kernel))
	fs, err := filesystem(e.outDir)
	if err != nil {
		return nil, err
	}
	m["wal_dir_fs"] = fs
	h := sha256.Sum256([]byte(fmt.Sprintf("%v|%v|%v|%v|%v|%v", m["cpu_model"], m["nproc"], m["l2"], m["l3"], m["kernel"], m["goos_arch"])))
	m["host_id"] = hex.EncodeToString(h[:6])
	return m, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads CPU 0's data/unified cache sizes by level from sysfs.
func cacheSizes() map[int]string {
	out := map[int]string{2: "unknown", 3: "unknown"}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		if lvl, err := strconv.Atoi(read("level")); err == nil && lvl >= 2 {
			out[lvl] = read("size")
		}
	}
	return out
}

// filesystem names the filesystem holding dir (where the WAL lives).
func filesystem(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs", 0x01021997: "9p",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}
