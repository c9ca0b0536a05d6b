package main

import "time"

// The host reference. The shared two-vCPU hosts this benchmark runs on
// slow down by 10 to 40 % for a minute or two at a time: anything that
// touches memory or wakes a thread takes longer, a register-only loop
// does not, and no statistic inside a half-minute run averages that out
// (README.md, "Noise", has the measurements). A fixed kernel of this
// benchmark's own, timed between the repetitions, moves with the same
// disturbance (r = 0.83 to 0.85 against every workload's wall, run by
// run), so each run divides its gated times by how much slower than
// nominal its reference kernel ran. The raw times and the factor are
// reported beside the normalised ones.
//
// The kernel is two goroutines handing a token back and forth over
// unbuffered channels: goroutine switches, scheduler wake-ups and the
// futex calls behind them, which is where a busy host shows first.
const (
	hostRefRounds  = 20000
	hostRefSamples = 5     // per repetition boundary
	hostRefNominal = 0.010 // seconds a sample takes on a quiet host of the class this was built on
)

// hostRef times one sample of the reference kernel.
func hostRef() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	t0 := time.Now()
	for i := 0; i < hostRefRounds; i++ {
		ping <- i
		<-pong
	}
	d := since(t0)
	close(ping)
	<-pong // the echo goroutine has ended
	return d
}

// sampleHost takes the reference samples of one repetition boundary.
func (r *run) sampleHost() {
	for i := 0; i < hostRefSamples; i++ {
		r.host = append(r.host, hostRef())
	}
}

// slowdown is how much slower than nominal the reference kernel ran over
// the whole run: the median of its samples over the nominal time.
func (r *run) slowdown() float64 { return median(r.host) / hostRefNominal }
