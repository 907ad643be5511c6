package netrt

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workerEnv is the environment variable that turns a re-exec of the host
// binary into a worker: "leaderAddr|node|epoch". MaybeWorker checks it.
const workerEnv = "RLD_NETRT_WORKER"

// procMu guards the live-process registry below. Every worker process this
// process spawns is registered at Start and unregistered when its exit is
// reaped, so tests can assert no workers leak (see LiveWorkers).
var (
	procMu    sync.Mutex
	liveProcs = map[int]string{} //rldlint:guardedby procMu -- pid → description
)

func registerProc(pid int, desc string) {
	procMu.Lock()
	liveProcs[pid] = desc
	procMu.Unlock()
}

func unregisterProc(pid int) {
	procMu.Lock()
	delete(liveProcs, pid)
	procMu.Unlock()
}

// LiveWorkers returns the pids of worker processes spawned by this process
// and not yet reaped, sorted — the child-process table the TestMain leak
// gate snapshots after the net-substrate tests.
func LiveWorkers() []int {
	procMu.Lock()
	defer procMu.Unlock()
	out := make([]int, 0, len(liveProcs))
	for pid := range liveProcs {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// CheckLeaks is the TestMain-level leak gate: it waits (with retries, up to
// ~5s) for the live worker-process table to empty and the goroutine count
// to settle back to at most baseline+slack, and reports what leaked
// otherwise. goroutines() is passed in (runtime.NumGoroutine) so this
// package does not import the runtime package's test-only helpers.
func CheckLeaks(baseline, slack int, goroutines func() int) error {
	deadline := time.Now().Add(5 * time.Second) //rldlint:allow wallclock -- leak gate polls real process/goroutine state
	for {
		procs := LiveWorkers()
		g := goroutines()
		if len(procs) == 0 && g <= baseline+slack {
			return nil
		}
		if time.Now().After(deadline) { //rldlint:allow wallclock -- leak gate polls real process/goroutine state
			//rldlint:allow rawerror -- test-gate diagnostic, never crosses the wire or API
			return fmt.Errorf("netrt: leak gate: %d worker processes still live %v, %d goroutines (baseline %d, slack %d)",
				len(procs), procs, g, baseline, slack)
		}
		time.Sleep(50 * time.Millisecond) //rldlint:allow wallclock -- leak gate polls real process/goroutine state
	}
}

// MaybeWorker turns this process into a netrt worker if it was spawned as
// one (the leader re-execs its own binary with RLD_NETRT_WORKER set). It
// must run before anything else in main() or TestMain(); when the variable
// is set it serves the worker loop and never returns. Binaries that can
// host a distributed Pipeline call it first thing (rld.MaybeWorker is the
// public alias).
func MaybeWorker() {
	spec := os.Getenv(workerEnv)
	if spec == "" {
		return
	}
	parts := strings.Split(spec, "|")
	if len(parts) != 3 {
		fmt.Fprintf(os.Stderr, "rld worker: malformed %s=%q\n", workerEnv, spec)
		os.Exit(2)
	}
	node, err1 := strconv.Atoi(parts[1])
	epoch, err2 := strconv.ParseUint(parts[2], 10, 64)
	if err1 != nil || err2 != nil {
		fmt.Fprintf(os.Stderr, "rld worker: malformed %s=%q\n", workerEnv, spec)
		os.Exit(2)
	}
	if err := RunWorker(parts[0], node, epoch); err != nil {
		fmt.Fprintf(os.Stderr, "rld worker %d: %v\n", node, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnWorker launches the worker process for a node: either the
// configured worker command (cmd/rldworker style, passed -leader/-node/
// -epoch flags) or a re-exec of this binary with the worker environment
// set. The process is registered for the leak gate; onExit runs (once)
// after the process is reaped.
func spawnWorker(workerCmd []string, leaderAddr string, node int, epoch uint64, onExit func()) (*exec.Cmd, <-chan struct{}, error) {
	var cmd *exec.Cmd
	if len(workerCmd) > 0 {
		argv := append(append([]string{}, workerCmd...),
			"-leader", leaderAddr, "-node", strconv.Itoa(node), "-epoch", strconv.FormatUint(epoch, 10))
		cmd = exec.Command(argv[0], argv[1:]...)
		cmd.Env = os.Environ()
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, nil, fmt.Errorf("netrt: resolve worker binary: %w", err)
		}
		cmd = exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s|%d|%d", workerEnv, leaderAddr, node, epoch))
	}
	// Worker diagnostics land on the leader's stderr; stdout stays quiet
	// so smoke-test output parsing is unaffected.
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("netrt: spawn worker %d: %w", node, err)
	}
	pid := cmd.Process.Pid
	registerProc(pid, fmt.Sprintf("node %d epoch %d", node, epoch))
	done := make(chan struct{})
	// Process reaper: bounded by the child's exit, which Stop forces.
	go func() {
		_ = cmd.Wait()
		unregisterProc(pid)
		close(done)
		if onExit != nil {
			onExit()
		}
	}()
	return cmd, done, nil
}
