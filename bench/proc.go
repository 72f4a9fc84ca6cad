package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// tick is the unit of the CPU times in /proc: USER_HZ, which Linux fixes at
// 100 for user space whatever the kernel's own timer rate.
const tick = 10 * time.Millisecond

// procSample is a snapshot of a process's counters, as /proc tells them.
type procSample struct {
	user, sys       time.Duration
	readCalls       uint64 // read-like system calls (syscr)
	writeCalls      uint64 // write-like system calls (syscw)
	diskWriteBytes  uint64 // bytes sent to the storage layer (write_bytes)
	ctxSwitches     uint64 // voluntary + involuntary, summed over threads
	peakRSSKiB      uint64 // VmHWM
	hostSteal, host time.Duration
}

// parseStat extracts user and system CPU time from /proc/<pid>/stat. The
// command name, field 2, is in parentheses and may itself hold spaces and
// parentheses, so fields are counted from the last ")".
func parseStat(data []byte) (user, sys time.Duration, err error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("stat: no command field in %q", truncate(data))
	}
	fields := bytes.Fields(data[i+1:]) // fields[0] is field 3 (state)
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(fields))
	}
	ut, err1 := strconv.ParseUint(string(fields[11]), 10, 64) // field 14
	st, err2 := strconv.ParseUint(string(fields[12]), 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("stat: bad utime/stime %q %q", fields[11], fields[12])
	}
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// parseKeyed returns the first integer after "key:" in a file of
// "key: value [unit]" lines, the shape of /proc/<pid>/status and /io.
func parseKeyed(data []byte, key string) (uint64, error) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || string(name) != key {
			continue
		}
		fields := bytes.Fields(value)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseUint(string(fields[0]), 10, 64)
	}
	return 0, fmt.Errorf("no %q line", key)
}

// parseHostStat extracts, from /proc/stat's aggregate "cpu" line, the time
// stolen by the hypervisor and the total time accounted.
func parseHostStat(data []byte) (steal, total time.Duration, err error) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, fmt.Errorf("host stat: unexpected first line %q", truncate(line))
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so stop at steal.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("host stat: bad field %q", f)
		}
		total += time.Duration(v) * tick
		if i == 7 {
			steal = time.Duration(v) * tick
		}
	}
	return steal, total, nil
}

// sampleProc reads every counter of process pid.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	data, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.user, s.sys, err = parseStat(data); err != nil {
		return s, err
	}
	if data, err = os.ReadFile(filepath.Join(dir, "io")); err != nil {
		return s, err
	}
	for key, dst := range map[string]*uint64{"syscr": &s.readCalls, "syscw": &s.writeCalls, "write_bytes": &s.diskWriteBytes} {
		if *dst, err = parseKeyed(data, key); err != nil {
			return s, fmt.Errorf("%s/io: %w", dir, err)
		}
	}
	if data, err = os.ReadFile(filepath.Join(dir, "status")); err != nil {
		return s, err
	}
	if s.peakRSSKiB, err = parseKeyed(data, "VmHWM"); err != nil {
		return s, fmt.Errorf("%s/status: %w", dir, err)
	}
	// The switch counts in <pid>/status are the main thread's alone.
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return s, err
	}
	for _, path := range tasks {
		if data, err = os.ReadFile(path); err != nil {
			continue // the thread ended between the listing and the read
		}
		for _, key := range []string{"voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"} {
			n, err := parseKeyed(data, key)
			if err != nil {
				return s, fmt.Errorf("%s: %w", path, err)
			}
			s.ctxSwitches += n
		}
	}
	if data, err = os.ReadFile("/proc/stat"); err != nil {
		return s, err
	}
	s.hostSteal, s.host, err = parseHostStat(data)
	return s, err
}

// selfCPU returns the CPU time this process has used, user plus system.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
