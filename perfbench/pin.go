package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The load phases run on one processor: the benchmark, pwd and the
// reference echo server all share it, so one request at a time costs
// the same whether the machine's other processors sit idle or run
// other work, and no request waits on a wake-up across processors. The
// traced replays run on every processor the benchmark may use, so that
// the collector's background work does not land inside the layer spans
// it times.

// cpuMask is a sched_setaffinity mask for up to 1024 processors.
type cpuMask [16]uint64

// allowed is the set of processors this process may run on when it
// starts, and so what nproc reports.
var allowed = func() cpuMask {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		m[0] = 1<<runtime.NumCPU() - 1
	}
	return m
}()

func (m cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// first is the mask of the lowest processor in m.
func (m cpuMask) first() cpuMask {
	var f cpuMask
	for i, w := range m {
		if w != 0 {
			f[i] = w & -w
			return f
		}
	}
	return f
}

// pin restricts every thread of this process, and every child it
// starts from now on, to the processors in m, and sets GOMAXPROCS to
// their number. A thread started while the threads are being moved
// inherits its parent's old mask, so it goes over them until a pass
// finds no thread it has not moved.
func pin(m cpuMask) error {
	runtime.GOMAXPROCS(m.count())
	done := map[int]bool{}
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		moved := 0
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || done[tid] {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", errno)
			}
			done[tid] = true
			moved++
		}
		if moved == 0 {
			return nil
		}
	}
}
