package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// TestWriteVerdictsBytes holds writeVerdicts to the reply spelled out, for
// every verdict mix, with and without the array header, through writers so
// small that a reply spans many flushes.
func TestWriteVerdictsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{16, 64, 4096} {
		for _, n := range []int{1, 2, 7, 64, 1000} {
			for _, multi := range []bool{false, true} {
				verdicts := make([]bool, n)
				var want bytes.Buffer
				if multi {
					fmt.Fprintf(&want, "*%d\r\n", n)
				}
				for i := range verdicts {
					verdicts[i] = rng.Intn(2) == 1
					d := 0
					if verdicts[i] {
						d = 1
					}
					fmt.Fprintf(&want, ":%d\r\n", d)
				}
				var got bytes.Buffer
				w := bufio.NewWriterSize(&got, size)
				writeVerdicts(w, verdicts, multi)
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("size=%d n=%d multi=%v:\n got %q\nwant %q", size, n, multi, got.Bytes(), want.Bytes())
				}
			}
		}
	}
}

// BenchmarkWriteVerdicts renders 64-verdict BF.MEXISTS replies whose
// verdicts never repeat within the run: a window slides over 1 M
// independent coin flips, so the branch predictor cannot learn a pattern
// (a short cycle of requests lets it, and hides a per-verdict branch).
func BenchmarkWriteVerdicts(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	verdicts := make([]bool, 1<<20)
	for i := range verdicts {
		verdicts[i] = rng.Intn(2) == 1
	}
	w := bufio.NewWriterSize(io.Discard, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * 64 % len(verdicts)
		writeVerdicts(w, verdicts[lo:lo+64], true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/verdict")
}
