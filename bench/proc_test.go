package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStat(t *testing.T) {
	// The command name holds spaces and a ")": fields count from the last one.
	const fixture = "4242 (evil) bloom (x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 731 209 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	user, sys, err := parseStat([]byte(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if user != 7310*time.Millisecond || sys != 2090*time.Millisecond {
		t.Errorf("user, sys = %v, %v; want 7.31s, 2.09s", user, sys)
	}
	for _, bad := range []string{"", "1 no-parens S 1", "1 (x) S 1 2 3"} {
		if _, _, err := parseStat([]byte(bad)); err == nil {
			t.Errorf("parseStat(%q) succeeded", bad)
		}
	}
}

func TestParseKeyed(t *testing.T) {
	const status = "Name:\tevilbloom\nVmPeak:\t  1300000 kB\nVmHWM:\t   16436 kB\nThreads:\t6\nvoluntary_ctxt_switches:\t812\nnonvoluntary_ctxt_switches:\t35\n"
	const io = "rchar: 100\nwchar: 200\nsyscr: 31\nsyscw: 47\nread_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n"
	for _, tc := range []struct {
		data, key string
		want      uint64
	}{
		{status, "VmHWM", 16436}, {status, "voluntary_ctxt_switches", 812}, {status, "nonvoluntary_ctxt_switches", 35},
		{io, "syscr", 31}, {io, "syscw", 47}, {io, "write_bytes", 8192},
	} {
		got, err := parseKeyed([]byte(tc.data), tc.key)
		if err != nil || got != tc.want {
			t.Errorf("parseKeyed(%s) = %d, %v; want %d", tc.key, got, err, tc.want)
		}
	}
	// "write_bytes" must not match "cancelled_write_bytes", nor a missing key anything.
	if _, err := parseKeyed([]byte("cancelled_write_bytes: 5\n"), "write_bytes"); err == nil {
		t.Error("a longer key matched")
	}
	if _, err := parseKeyed([]byte(status), "VmSwap"); err == nil {
		t.Error("a missing key was found")
	}
}

func TestParseHostStat(t *testing.T) {
	const fixture = "cpu  1000 20 300 5000 40 0 60 80 900 0\ncpu0 500 10 150 2500 20 0 30 40 450 0\nintr 1\n"
	steal, total, err := parseHostStat([]byte(fixture))
	if err != nil {
		t.Fatal(err)
	}
	// Guest time (900) is inside user and must not be counted again.
	if steal != 800*time.Millisecond || total != 65*time.Second {
		t.Errorf("steal, total = %v, %v; want 800ms, 65s", steal, total)
	}
	if _, _, err := parseHostStat([]byte("intr 1 2 3\n")); err == nil {
		t.Error("a file without a cpu line parsed")
	}
}

// The parsers must agree with the running kernel, not only with fixtures.
func TestSampleProcSelf(t *testing.T) {
	s, err := sampleProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.peakRSSKiB == 0 || s.host == 0 || s.readCalls == 0 {
		t.Errorf("implausible sample of this process: %+v", s)
	}
	if selfCPU() <= 0 {
		t.Error("this process has used no CPU")
	}
}
