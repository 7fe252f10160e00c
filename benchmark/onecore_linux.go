package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask: room for 1024 CPUs.
type cpuMask [16]uint64

// onOneCore confines the system under test to one core: this process
// runs on one P and the worker processes it spawns inherit that through
// the environment. With pin, every thread this process has is also pinned
// to one CPU, the highest-numbered it was allowed (the lowest ones carry
// the rest of the machine), which the workers inherit too; cpu is that
// CPU, -1 without pin. restore undoes all of it and may be called more
// than once.
//
// On the two-vCPU virtual machine the benchmark is run on, waking a
// goroutine or a worker on the other vCPU costs 50-100 µs when that vCPU
// idles, and whether a request's hand-offs stay on one vCPU or cross is
// decided per run by the two schedulers and by what else the host runs.
// One connection measured 0.40 to 0.52 ms (http-replay; 0.31 on one P)
// and 0.8 to 1.4 ms (fleet-proc-replay) at p50 from one run to the next.
// One P keeps the hand-offs inside a process on one thread. Those between
// processes the kernel places, so a system of several processes is pinned
// as well; a single process is not, because a pinned thread cannot step
// aside when something else is put on its CPU.
func onOneCore(pin bool) (cpu int, restore func(), err error) {
	prevProcs := runtime.GOMAXPROCS(1)
	env, hadEnv := os.LookupEnv("GOMAXPROCS")
	os.Setenv("GOMAXPROCS", "1")
	unpin := func() {}
	restore = func() {
		unpin()
		runtime.GOMAXPROCS(prevProcs)
		if hadEnv {
			os.Setenv("GOMAXPROCS", env)
		} else {
			os.Unsetenv("GOMAXPROCS")
		}
	}
	if !pin {
		return -1, restore, nil
	}
	var allowed cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		restore()
		return 0, nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu = len(allowed)*64 - 1
	for cpu > 0 && allowed[cpu/64]&(1<<(cpu%64)) == 0 {
		cpu--
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	unpin = func() { _ = pinThreads(&allowed) }
	if err := pinThreads(&one); err != nil {
		restore()
		return 0, nil, err
	}
	return cpu, restore, nil
}

// pinThreads sets the affinity of every thread of this process. A thread
// started later inherits the mask of the thread that starts it, so two
// passes leave none behind even if one is born during the first.
func pinThreads(mask *cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread ended between the listing and the call.
			if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, mask); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
		}
	}
	return nil
}

func affinity(call uintptr, tid int, mask *cpuMask) error {
	_, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
	if errno != 0 {
		return errno
	}
	return nil
}
