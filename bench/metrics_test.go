package main

import (
	"testing"
	"time"
)

// syntheticPhase builds a phase of two connections completing one request
// every gap, each with the round trip lat(i) nanoseconds.
func syntheticPhase(perConn int, gap time.Duration, lat func(i int) int64) phase {
	ph := phase{tallies: make([]tally, 2), ends: make([]int64, 2)}
	for c := range ph.tallies {
		for i := 0; i < perConn; i++ {
			at := int64(gap) * int64(i+1)
			ph.tallies[c].doneAt = append(ph.tallies[c].doneAt, at)
			ph.tallies[c].lat = append(ph.tallies[c].lat, lat(i))
			ph.ends[c] = at
		}
	}
	return ph
}

func TestReduceWindows(t *testing.T) {
	// 2 connections × 1000 requests/s for 5.5 s; one window in five is slow.
	ph := syntheticPhase(5500, time.Millisecond, func(i int) int64 {
		if i/1000 == 2 {
			return 900_000
		}
		return 100_000 + int64(i%1000)*100 // 100 µs .. 199.9 µs within a window
	})
	ws, err := reduceWindows(ph, time.Second, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if ws.windows != 5 {
		t.Errorf("windows = %d, want 5 full ones of 5.5 s", ws.windows)
	}
	// Completions at exactly k seconds fall into window k, so window 0 holds
	// 999 per connection and the others 1000: the median is 2000 × 64.
	if want := 2000.0 * itemsPerRequest; ws.throughput != want {
		t.Errorf("throughput = %v, want %v", ws.throughput, want)
	}
	// The slow window moves the maximum and not the medians.
	if ws.max != 900 {
		t.Errorf("max = %v µs, want 900", ws.max)
	}
	if ws.p99 < 198 || ws.p99 > 200 || ws.p50 < 149 || ws.p50 > 151 {
		t.Errorf("p50, p99 = %v, %v µs; want about 150 and 199", ws.p50, ws.p99)
	}
	if ws.duration != 5500*time.Millisecond {
		t.Errorf("duration = %v, want 5.5s", ws.duration)
	}
}

func TestReduceWindowsStopsAtFirstIdleConnection(t *testing.T) {
	ph := syntheticPhase(3000, time.Millisecond, func(int) int64 { return 1000 })
	// The second connection finishes a second early: window 2 is not full.
	ph.tallies[1].doneAt = ph.tallies[1].doneAt[:1900]
	ph.tallies[1].lat = ph.tallies[1].lat[:1900]
	ph.ends[1] = ph.tallies[1].doneAt[1899]
	ws, err := reduceWindows(ph, time.Second, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if ws.windows != 1 {
		t.Errorf("windows = %d, want 1: only the first second had both connections busy throughout", ws.windows)
	}
}

// A deadline ends the kept windows even when replies trickle in after it.
func TestReduceWindowsStopsAtDeadline(t *testing.T) {
	ph := syntheticPhase(4200, time.Millisecond, func(int) int64 { return 1000 })
	ws, err := reduceWindows(ph, time.Second, 3*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if ws.windows != 3 {
		t.Errorf("windows = %d, want the 3 before the deadline of a 4.2 s phase", ws.windows)
	}
}

// A stall of the host leaves a window thin: the run stands, the window
// counts towards throughput and not towards the latency quantiles.
func TestReduceWindowsSkipsThinWindow(t *testing.T) {
	ph := syntheticPhase(5500, time.Millisecond, func(i int) int64 {
		if i/1000 == 2 {
			return 900_000
		}
		return 100_000
	})
	for c := range ph.tallies {
		tl := &ph.tallies[c]
		// Keep 100 of the slow window's 1000 completions per connection.
		tl.doneAt = append(tl.doneAt[:2100:2100], tl.doneAt[3000:]...)
		tl.lat = append(tl.lat[:2100:2100], tl.lat[3000:]...)
	}
	ws, err := reduceWindows(ph, time.Second, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if ws.windows != 5 || ws.p99 != 100 || ws.max != 900 {
		t.Errorf("windows, p99, max = %d, %v, %v; want 5 windows, the thin one's 900 µs in max alone", ws.windows, ws.p99, ws.max)
	}
	// The windows hold 1998, 2000, 202, 1998 and 2000 requests.
	if want := 1998.0 * itemsPerRequest; ws.throughput != want {
		t.Errorf("throughput = %v, want the median window's %v", ws.throughput, want)
	}
}

func TestReduceWindowsGates(t *testing.T) {
	thin := syntheticPhase(300, 10*time.Millisecond, func(int) int64 { return 1000 })
	if _, err := reduceWindows(thin, time.Second, 0, true); err == nil {
		t.Error("a phase whose every window holds 200 requests passed the p99 gate")
	}
	if _, err := reduceWindows(thin, time.Second, 0, false); err != nil {
		t.Errorf("plumbing mode refused a thin phase: %v", err)
	}
	short := syntheticPhase(100, time.Millisecond, func(int) int64 { return 1000 })
	if _, err := reduceWindows(short, time.Second, 0, true); err == nil {
		t.Error("a 0.1 s phase passed the full-window gate")
	}
	ws, err := reduceWindows(short, time.Second, 0, false)
	if err != nil || ws.windows != 1 || ws.throughput <= 0 {
		t.Errorf("plumbing mode on a 0.1 s phase: %+v, %v", ws, err)
	}
}

func TestDifferingRequests(t *testing.T) {
	a := make([]bool, 3*setupBatch+10)
	b := append([]bool(nil), a...)
	if got := differingRequests(a, b); got != 0 {
		t.Errorf("identical streams differ in %d requests", got)
	}
	b[5], b[6] = true, true  // request 0, twice
	b[3*setupBatch+9] = true // the short last request
	if got := differingRequests(a, b); got != 2 {
		t.Errorf("differing requests = %d, want 2", got)
	}
	if got := differingRequests(a, b[:setupBatch]); got != 4 {
		t.Errorf("streams of different length: %d, want all 4 requests of the longer", got)
	}
}
