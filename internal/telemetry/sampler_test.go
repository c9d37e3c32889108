package telemetry

import "testing"

func TestSamplerDueAndSeries(t *testing.T) {
	s := NewSampler(100, 0)
	c := NewCounter("n", "")
	cyc := NewCounter("cycles", "")
	s.Ratio("rate", CounterValue(c), CounterValue(cyc))
	s.Value("gauge", func() float64 { return 42 })

	if s.Due(50) {
		t.Error("due before first interval")
	}
	c.Add(30)
	cyc.Store(100)
	if !s.Due(100) {
		t.Fatal("not due at 100")
	}
	s.Sample(100, 1000)
	c.Add(10)
	cyc.Store(200)
	s.Sample(200, 2000)

	series := s.Series()
	// Built-in instructions series plus two probes.
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	if series[0].Name != "cpu.instructions_retired" || series[0].Values[1] != 2000 {
		t.Errorf("instructions series = %+v", series[0])
	}
	rate := series[1]
	if rate.Values[0] != 0.3 { // 30 events over 100 cycles
		t.Errorf("rate[0] = %v, want 0.3", rate.Values[0])
	}
	if rate.Values[1] != 0.1 { // windowed: only the 10 new events count
		t.Errorf("rate[1] = %v, want 0.1", rate.Values[1])
	}
	if series[2].Values[0] != 42 {
		t.Errorf("gauge series = %+v", series[2])
	}
}

// TestSamplerPhaseBoundary is the warmup/measure isolation guarantee:
// marking a phase re-baselines windowed probes, so activity from the
// warmup phase cannot bleed into the first measured sample.
func TestSamplerPhaseBoundary(t *testing.T) {
	s := NewSampler(100, 0)
	misses := NewCounter("misses", "")
	accesses := NewCounter("accesses", "")
	s.Ratio("missrate", CounterValue(misses), CounterValue(accesses))

	s.MarkPhase("warmup", 0, 0)
	// Warmup: 90 misses out of 100 accesses — a terrible miss rate.
	misses.Add(90)
	accesses.Add(100)
	s.Sample(100, 100)

	// Boundary at cycle 150, then a clean measured window: 1 miss / 100.
	misses.Add(5) // tail of warmup activity between last sample and boundary
	accesses.Add(10)
	s.MarkPhase("measure", 150, 110)
	misses.Add(1)
	accesses.Add(100)
	s.Sample(200, 210)

	series := s.Series()[1]
	if series.Values[0] != 0.9 {
		t.Errorf("warmup sample = %v, want 0.9", series.Values[0])
	}
	// Without re-baselining this would be (5+1)/(10+100) ≈ 0.055.
	if series.Values[1] != 0.01 {
		t.Errorf("measured sample = %v, want 0.01 (warmup bled in)", series.Values[1])
	}

	ph := s.Phases()
	if len(ph) != 2 || ph[1].Name != "measure" || ph[1].Cycle != 150 {
		t.Fatalf("phases = %+v", ph)
	}
	// One sample falls on each side of the measure boundary.
	if c := series.Cycles; len(c) != 2 || c[0] >= ph[1].Cycle || c[1] < ph[1].Cycle {
		t.Errorf("sample cycles = %v, want one before and one at or after %d", c, ph[1].Cycle)
	}
}

func TestSamplerMaxSamples(t *testing.T) {
	s := NewSampler(1, 3)
	for c := int64(1); c <= 10; c++ {
		if s.Due(c) {
			s.Sample(c, uint64(c))
		}
	}
	if n := len(s.Series()[0].Cycles); n != 3 {
		t.Errorf("samples = %d, want 3", n)
	}
	if s.Truncated() != 7 {
		t.Errorf("truncated = %d, want 7", s.Truncated())
	}
}

func TestSamplerOnSampleCallback(t *testing.T) {
	s := NewSampler(10, 0)
	s.Value("v", func() float64 { return 1 })
	var gotCycle int64
	var gotInstr uint64
	s.OnSample(func(cycle int64, instr uint64, values []float64) {
		gotCycle, gotInstr = cycle, instr
		if len(values) != 1 || values[0] != 1 {
			t.Errorf("values = %v", values)
		}
	})
	s.Sample(10, 77)
	if gotCycle != 10 || gotInstr != 77 {
		t.Errorf("callback got (%d, %d)", gotCycle, gotInstr)
	}
}

// TestSamplerClockJump pins the due/rebase semantics under discontinuous
// commit clocks, which long-latency stalls produce: when the clock lands
// past one or more due boundaries, exactly ONE sample is taken at the
// landing cycle and the grid rebases there (next due = landing + every).
// Sample timing is thus a function of the observed commit-cycle sequence
// alone — two engines that agree on commit cycles agree on every sample,
// no matter how either advances its clock in between.
func TestSamplerClockJump(t *testing.T) {
	cases := []struct {
		name    string
		every   int64
		commits []int64 // observed commit cycles, in order
		want    []int64 // cycles at which samples must land
	}{
		{"regular grid", 100,
			[]int64{50, 100, 150, 200, 300}, []int64{100, 200, 300}},
		{"jump past three boundaries samples once", 100,
			[]int64{100, 450, 460}, []int64{100, 450}},
		{"rebase after jump, old grid is dead", 100,
			// After sampling at 450 the next due is 550, not 500.
			[]int64{100, 450, 500, 549, 550}, []int64{100, 450, 550}},
		{"overshoot by one rebases off-grid", 100,
			[]int64{101, 200, 201, 301}, []int64{101, 201, 301}},
		{"huge jump still one sample", 100,
			[]int64{1 << 40}, []int64{1 << 40}},
		{"stall spanning many windows", 7,
			[]int64{6, 7, 8, 70, 76, 77}, []int64{7, 70, 77}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSampler(tc.every, 0)
			var got []int64
			for _, c := range tc.commits {
				if s.Due(c) {
					s.Sample(c, uint64(c))
					got = append(got, c)
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("sampled at %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("sampled at %v, want %v", got, tc.want)
				}
			}
			if n := len(s.Series()[0].Cycles); n != len(tc.want) {
				t.Errorf("recorded %d samples, want %d", n, len(tc.want))
			}
		})
	}
}
