package main

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"rld/internal/netrt"
)

// cpuNanos returns the CPU time consumed so far by this process and the
// live worker processes, summed over their threads. It reads the scheduler's
// per-thread run time (/proc/<pid>/task/*/schedstat, nanoseconds) because
// /proc/<pid>/stat counts in 10 ms ticks, coarser than a segment.
func cpuNanos() int64 {
	total := procCPUNanos("self")
	for _, pid := range netrt.LiveWorkers() {
		total += procCPUNanos(strconv.Itoa(pid))
	}
	return total
}

func procCPUNanos(pid string) int64 {
	files, _ := filepath.Glob("/proc/" + pid + "/task/*/schedstat")
	var total int64
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if fields := strings.Fields(string(raw)); len(fields) > 0 {
			ns, _ := strconv.ParseInt(fields[0], 10, 64)
			total += ns
		}
	}
	return total
}

// pinToOneCPU confines every thread of this process, and so every process
// it starts later, to the highest-numbered CPU it may run on, and returns
// that CPU. The benchmark measures work, not parallel speed-up: on a shared
// 2-vCPU machine the cost of waking the other CPU swings by 25 % for
// minutes at a time with the neighbours' load, while one CPU's own speed
// holds. Pinned, every hand-off between goroutines or processes is a
// context switch on the same CPU.
func pinToOneCPU() (int, error) {
	var mask [1024 / 64]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := range mask {
		if mask[i] != 0 {
			cpu = i*64 + bits.Len64(mask[i]) - 1
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity returned an empty mask")
	}
	mask = [len(mask)]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	tasks, err := filepath.Glob("/proc/self/task/*")
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("listing threads: %v", err)
	}
	for _, t := range tasks {
		tid, _ := strconv.Atoi(filepath.Base(t))
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 && e != syscall.ESRCH {
			return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
		}
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}

// rssMB is this process's resident set in MiB (0 when /proc is unreadable).
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// refBurstMS is what the reference burst takes right after a segment on the
// 2-vCPU sandbox while its neighbours are idle. Every timed step is followed by a burst, and the
// step's time is scaled by refBurstMS over that burst's time: the
// end-to-end metrics read "at reference speed". It is a constant, not the
// run's own best burst, so that runs which never saw the machine idle
// scale to the same speed as runs that did.
const refBurstMS = 0.35

// The reference burst is burstRounds hand-offs with burstMapOps operations
// on a table of burstKeys keys between one hand-off and the next. Four map
// operations per hand-off tracked both gated workloads best (bench/README.md).
const (
	burstRounds = 500
	burstMapOps = 4
	burstKeys   = 8192
)

// burstRows is the burst's keyed state, kept across bursts so that each one
// runs against a full table, like a warm window.
var (
	burstRows = map[int64][]int64{}
	burstSeq  int64
	burstSink int
)

// calibrate runs the reference burst three times and returns the fastest
// in milliseconds. The burst does, in small, what a pipeline does per batch:
// it hands a value to another goroutine and waits for it to come back, and
// it appends to, trims and reads slices held in a hash map. The host slows
// for tens of seconds to minutes at a time by up to 40 % (busy neighbours on
// the same core and memory), and this mix of work slows with it in the same
// proportion as the pipelines do; a pure integer loop does not notice.
func calibrate() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	defer close(ping)
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t := time.Now()
		for j := 0; j < burstRounds; j++ {
			for k := 0; k < burstMapOps; k++ {
				burstSeq++
				key := burstSeq * 2654435761 % burstKeys
				rows := append(burstRows[key], burstSeq)
				if len(rows) > 4 {
					rows = rows[1:]
				}
				burstRows[key] = rows
				burstSink += len(burstRows[(key+17)%burstKeys])
			}
			ping <- j
			<-pong
		}
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return ms(best)
}

// slowdown is how much slower than the reference speed the machine ran
// next to a burst of burstMS: multiply a throughput by it, divide a time.
func slowdown(burstMS float64) float64 { return burstMS / refBurstMS }

// memCounters is the allocator and collector state differenced across a
// phase. gcCPU is the CPU time the collector has used, in seconds; on one
// CPU it comes straight out of the pipeline's time.
type memCounters struct {
	mallocs, bytes, pauseNs uint64
	gcCPU                   float64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	c := memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNs: m.PauseTotalNs}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = gc[0].Value.Float64()
	}
	return c
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rldperf: "+format+"\n", args...)
	os.Exit(1)
}
