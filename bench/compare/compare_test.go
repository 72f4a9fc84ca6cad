package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "tput", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		a, b []float64
		spec metricSpec
		want string
	}{
		{"same", tight, []float64{101, 100, 100, 99, 103}, lower, "ok"},
		{"worse within the bound", tight, []float64{108, 107, 109, 108, 108}, lower, "ok"},
		{"lower-is-better got 20% higher", tight, []float64{120, 121, 119, 120, 122}, lower, "regression"},
		{"lower-is-better got 20% lower", tight, []float64{80, 81, 79, 80, 82}, lower, "ok"},
		{"higher-is-better got 20% lower", tight, []float64{80, 81, 79, 80, 82}, higher, "regression"},
		{"higher-is-better got 20% higher", tight, []float64{120, 121, 119, 120, 122}, higher, "ok"},
		{"one side too noisy to tell", tight, []float64{70, 130, 100, 85, 115}, lower, "unresolved"},
		{"noisy, yet every run beats every run", []float64{100, 130, 160, 115, 145}, []float64{50, 60, 40, 55, 45}, lower, "ok"},
		{"noisy and worse", tight, []float64{150, 250, 200, 170, 230}, lower, "unresolved"},
	} {
		if got := verdict(tc.a, tc.b, tc.spec); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); got != 0.1 {
		t.Errorf("lower: %v", got)
	}
	if got := worseBy(100, 110, "higher"); got != -0.1 {
		t.Errorf("higher: %v", got)
	}
	if got := worseBy(0, 5, "lower"); got != 0 {
		t.Errorf("zero base: %v", got)
	}
}
