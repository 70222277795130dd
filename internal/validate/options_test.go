package validate

import (
	"runtime"
	"testing"
)

// TestEffectiveWorkers pins the Workers resolution contract: explicit
// values are clamped, zero means "autotune on big graphs, sequential
// otherwise", and the result never exceeds the element count or
// 8×GOMAXPROCS.
func TestEffectiveWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	hard := 8 * procs
	cases := []struct {
		name     string
		opts     Options
		elements int
		want     int
	}{
		{"negative clamps to one", Options{Workers: -3}, 1000, 1},
		{"zero stays sequential on small graphs", Options{}, autotuneElements - 1, 1},
		{"zero autotunes to GOMAXPROCS at scale", Options{}, autotuneElements, procs},
		{"explicit value is kept", Options{Workers: 2}, autotuneElements, 2},
		{"explicit value capped at 8x GOMAXPROCS", Options{Workers: 10 * hard}, 10_000_000, hard},
		{"never more workers than elements", Options{Workers: 64}, 3, 3},
		{"zero elements skips the element cap", Options{Workers: 4}, 0, 4},
		{"negative disables autotune", Options{Workers: -1}, autotuneElements, 1},
	}
	for _, tc := range cases {
		if got := tc.opts.EffectiveWorkers(tc.elements); got != tc.want {
			t.Errorf("%s: EffectiveWorkers(%d) = %d, want %d", tc.name, tc.elements, got, tc.want)
		}
	}
}
