package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Fixed lengths that do not scale with -seconds.
const (
	setupsPerRun  = 6               // set-ups a run times, shared out among its segments; setup_s is their median
	warmupLen     = 1 * time.Second // untimed closed-loop run that absorbs the first checkpoints
	drainTimeout  = 5 * time.Second // a write not committed this long after its phase ended has failed
	setupTimeout  = 30 * time.Second
	pacedShare    = 0.375                  // of -seconds; the rest is the saturation phase
	faultAfter    = 2 * time.Second        // write-degraded: into the paced phase
	flushEvery    = 64                     // closed loop: lines buffered before a flush
	sampleEvery   = 100 * time.Millisecond // saturation phase: spacing of the CPU-time samples
	outageGap     = 1 * time.Second        // saturation phase: this long without a completion is an outage (half of StallTimeout)
	degradedIndex = clusterN - 1           // the replica write-degraded stops
)

// run is one benchmark run of one workload.
type run struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	index   int // which segment of the run this is
	// setupRounds is how many times this segment sets up; the last cluster is
	// the one that gets loaded.
	setupRounds int
	quick       bool // tests: a short warm-up

	epoch   time.Time
	cluster *cluster
	clients []*client
	obs     *observer

	phase    atomic.Int32
	tracing  atomic.Bool   // ops issued now are observed through to every live replica
	deadMask atomic.Uint32 // replicas the fault injector stopped

	abort    chan struct{}
	failOnce sync.Once
	failErr  error

	unissued atomic.Int64 // paced ops that fell due and were never sent (window exhausted)

	// Fault bookkeeping (write-degraded).
	stoppedState   map[string]string
	stoppedCommits uint64
	faultDone      chan struct{}

	res result
}

// result is what a run measured.
type result struct {
	setups               []float64 // seconds, one per set-up
	pacedStart, pacedEnd int64
	satStart, satEnd     int64
	traceSplit           int64       // trace mode: tracing switched on here, mid-saturation
	satCPU               []cpuSample // user+sys CPU time across the saturation phase, every sampleEvery
	rssPeakMB            float64
	before, after        []map[string]float64 // registry snapshots around the saturation phase, per replica
	ckptBefore, ckptAft  []int
	fsType               string
	fsyncProbeUS         float64
	checkErrs            []string
	staleReads           int // reads the check found to have gone backwards
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

func (r *run) liveCount() int { return clusterN - popcount(r.deadMask.Load()) }

// fatal aborts the run: generators stop waiting, and execute reports err.
func (r *run) fatal(err error) {
	r.failOnce.Do(func() {
		r.failErr = err
		close(r.abort)
	})
}

// setup stands a cluster up, opens the client sessions and commits one
// write per client. It is everything a run needs before it can be loaded.
func (r *run) setup(round int) (time.Duration, error) {
	t0 := time.Now()
	r.epoch = t0
	r.abort = make(chan struct{})
	dataDir := filepath.Join(r.outDir, fmt.Sprintf("data-%d-%d-%d", os.Getpid(), r.index, round))
	c, err := startCluster(r.w, dataDir)
	if err != nil {
		return 0, err
	}
	r.cluster = c
	r.obs = newObserver(r)
	r.clients = nil
	for id := 0; id < numClients; id++ {
		cl, err := newClient(r, id, r.seed)
		if err != nil {
			r.teardown()
			return 0, err
		}
		r.clients = append(r.clients, cl)
	}
	r.obs.start()
	r.phase.Store(phaseWarmup)
	for _, cl := range r.clients {
		spec := cl.stream.next()
		for spec.read {
			spec = cl.stream.next()
		}
		cl.issue(spec, phaseWarmup, r.now())
		cl.flush()
	}
	if !r.drain(setupTimeout) {
		r.teardown()
		return 0, fmt.Errorf("bench: the first write did not commit within %v of cluster start", setupTimeout)
	}
	return time.Since(t0), nil
}

func (r *run) teardown() {
	if r.obs != nil {
		r.obs.stop()
		r.obs = nil
	}
	for _, cl := range r.clients {
		cl.close()
	}
	r.clients = nil
	if r.cluster != nil {
		r.cluster.stop()
		r.cluster = nil
	}
}

// drain waits until no client has anything outstanding, sending the READs
// that need a retry meanwhile: no generator may be running. It reports false
// on timeout or abort.
func (r *run) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, cl := range r.clients {
			cl.resendPending()
			if !cl.idle() {
				idle = false
			}
		}
		if idle {
			return true
		}
		select {
		case <-r.abort:
			return false
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// drive runs one phase's generators on every client and returns when the
// phase's time is up; what is still outstanding then is the caller's to
// drain. rate is the paced phase's total ops/s; 0 runs the closed loop.
// mid, when non-nil, is called halfway through the phase.
func (r *run) drive(phase uint8, length time.Duration, rate int, mid func()) (start, end int64) {
	r.phase.Store(int32(phase))
	start = r.now() + int64(time.Millisecond) // let every generator reach its first due time
	end = start + int64(length)
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.generate(phase, start, end, float64(rate)/numClients)
		}(cl)
	}
	if mid != nil {
		time.Sleep(time.Duration(start + int64(length)/2 - r.now()))
		mid()
	}
	wg.Wait()
	return start, end
}

// generate issues this client's share of one phase: paced (rate > 0, open
// loop: the i-th op is due at a fixed offset whatever happened to the ones
// before it) or closed loop (the window is kept full).
func (c *client) generate(phase uint8, start, end int64, rate float64) {
	r := c.run
	// The closed loop stops at the phase end. The paced schedule is owed in
	// full: an op that fell due before the end is still sent late, and only
	// a window that stays shut for the whole drain timeout leaves ops unsent.
	giveUp := end
	if rate > 0 {
		giveUp += int64(drainTimeout)
	}
	endTimer := time.NewTimer(time.Duration(giveUp - r.now()))
	defer endTimer.Stop()
	defer c.flush()
	buffered := 0
	// skipRest counts what the paced schedule still held from op i on: ops
	// that fell due and were never sent because the window stayed full.
	skipRest := func(i int) {
		for ; rate > 0 && start+dueOffset(i, rate, c.id) < end; i++ {
			r.unissued.Add(1)
		}
	}
	for i := 0; ; i++ {
		c.resendPending()
		due := int64(0)
		if rate > 0 {
			due = start + dueOffset(i, rate, c.id)
			if due >= end {
				return
			}
			if wait := due - r.now(); wait > 0 {
				c.flush()
				buffered = 0
				time.Sleep(time.Duration(wait))
			}
		}
		for !c.windowOpen() {
			c.flush()
			buffered = 0
			select {
			case <-c.freed:
			case op := <-c.retry:
				c.resend(op)
			case <-endTimer.C:
				skipRest(i)
				return
			case <-r.abort:
				return
			}
		}
		if rate == 0 {
			if due = r.now(); due >= end {
				return
			}
		}
		c.issue(c.stream.next(), phase, due)
		if buffered++; buffered >= flushEvery {
			c.flush()
			buffered = 0
		}
	}
}

// injectFault stops one replica partway into the paced phase and keeps it
// down. Requests keep arriving on schedule, so the outage is charged to the
// requests that fell due during it.
func (r *run) injectFault(at int64) {
	r.faultDone = make(chan struct{})
	go func() {
		defer close(r.faultDone)
		select {
		case <-time.After(time.Duration(at - r.now())):
		case <-r.abort:
			return
		}
		r.deadMask.Store(1 << degradedIndex)
		r.cluster.nodes[degradedIndex].Stop()
		r.stoppedState = r.cluster.stores[degradedIndex].Snapshot()
		r.stoppedCommits = r.cluster.commits[degradedIndex].Load()
	}()
}

// cpuSample is the process's CPU time at one instant of the run.
type cpuSample struct {
	at int64   // nanoseconds since the run's epoch
	ms float64 // user+sys so far
}

// sampleCPU records the process's CPU time every sampleEvery until stop is
// closed, and once more then.
func (r *run) sampleCPU(stop <-chan struct{}, done chan<- []cpuSample) {
	var samples []cpuSample
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		ms, _ := rusage()
		samples = append(samples, cpuSample{at: r.now(), ms: ms})
		select {
		case <-tick.C:
		case <-stop:
			ms, _ := rusage()
			done <- append(samples, cpuSample{at: r.now(), ms: ms})
			return
		}
	}
}

// rusage reads the process's user+sys CPU time in milliseconds and its peak
// resident set in MiB.
func rusage() (cpuMS, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// snapshotCounters flattens every live replica's metrics registry.
func (r *run) snapshotCounters() ([]map[string]float64, []int) {
	regs := make([]map[string]float64, clusterN)
	ckpts := make([]int, clusterN)
	for i, nd := range r.cluster.nodes {
		if r.deadMask.Load()&(1<<i) != 0 {
			continue
		}
		m := make(map[string]float64)
		for _, s := range nd.Metrics().Snapshot() {
			m[s.Name] = s.Value
		}
		regs[i] = m
		ckpts[i] = nd.Manager().Taken()
	}
	return regs, ckpts
}

// execute performs the whole run: set-ups, warm-up, paced phase, saturation
// phase, correctness check. The caller tears the last cluster down once it
// has read what it needs from the clients' records.
func (r *run) execute() error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	fsType, tmpfs, err := fsTypeOf(r.outDir)
	if err != nil {
		return err
	}
	r.res.fsType = fsType
	if r.w.durable && tmpfs {
		return fmt.Errorf("bench: %s is on tmpfs: write-durable would measure no disk at all", r.outDir)
	}
	if r.w.durable || r.trace {
		probe, err := fsyncProbe(r.outDir)
		if err != nil {
			return err
		}
		r.res.fsyncProbeUS = probe
	}
	for round := 0; round < r.setupRounds; round++ {
		if round > 0 {
			r.teardown()
			runtime.GC() // a torn-down cluster's state must not pile onto the peak RSS
		}
		d, err := r.setup(round)
		if err != nil {
			return err
		}
		r.res.setups = append(r.res.setups, d.Seconds())
	}

	warmup := warmupLen
	if r.quick {
		warmup = 300 * time.Millisecond
	}
	r.drive(phaseWarmup, warmup, 0, nil)
	r.drain(drainTimeout)

	pacedLen := time.Duration(r.seconds * pacedShare * float64(time.Second))
	satLen := time.Duration(r.seconds*float64(time.Second)) - pacedLen
	r.tracing.Store(r.trace)
	if r.w.degraded {
		after := faultAfter
		if after > pacedLen/3 {
			after = pacedLen / 3
		}
		r.injectFault(r.now() + int64(time.Millisecond) + int64(after))
	}
	r.res.pacedStart, r.res.pacedEnd = r.drive(phasePaced, pacedLen, r.w.rate, nil)
	r.drain(drainTimeout)
	if r.faultDone != nil {
		<-r.faultDone
	}

	// Saturation. In trace mode its first half runs untraced and its second
	// half traced: the ratio of the two halves' throughput is the tracing
	// overhead, measured within one run.
	r.tracing.Store(false)
	r.res.before, r.res.ckptBefore = r.snapshotCounters()
	stopSampling, sampled := make(chan struct{}), make(chan []cpuSample, 1)
	go r.sampleCPU(stopSampling, sampled)
	var mid func()
	if r.trace {
		mid = func() {
			r.res.traceSplit = r.now()
			r.tracing.Store(true)
		}
	}
	r.res.satStart, r.res.satEnd = r.drive(phaseSat, satLen, 0, mid)
	close(stopSampling)
	r.res.satCPU = <-sampled
	r.res.after, r.res.ckptAft = r.snapshotCounters()
	r.drain(drainTimeout)
	r.phase.Store(phaseWarmup)

	select {
	case <-r.abort:
		return r.failErr
	default:
	}
	r.res.checkErrs, r.res.staleReads = r.check()
	_, r.res.rssPeakMB = rusage()
	return nil
}

// ops returns every issued operation, all clients, in issue order per client.
func (r *run) ops() []*opRec {
	var out []*opRec
	for _, cl := range r.clients {
		cl.recs.each(func(op *opRec) { out = append(out, op) })
	}
	return out
}
