package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// The fixed shape every workload runs on (see README.md): the smallest
// Byzantine instantiation of the generic algorithm, session clients, and
// every other node.Config field at its shipped default.
const (
	clusterN     = 4
	clusterB     = 1
	quorum       = clusterB + 1 // replicas that make a write committed / a read certified
	numClients   = 2            // logical clients, ids 1 and 2
	clientWindow = 512          // max outstanding ops per client: half the 1024-entry seq window
	valueBytes   = 64
	authSeed     = 7
)

// workload is one traffic mix. The paced rate is frozen: it was set once,
// well below the rate at which the workload's paced median stops being
// steady (see README.md), and a change that moves it is a change to the
// benchmark.
type workload struct {
	name    string
	why     string
	keys    int  // keyspace size
	preload bool // install every key before the cluster starts (warm state)
	readPct int  // share of certified READs
	durable bool // DataDir + Fsync
	// ungated workloads are run by hand (-workload, -all, -repeat) and are
	// not among BENCHMARK.json's, because identical runs of them differ by as
	// much as any bound could allow (README.md, findings 11 and 13):
	// write-durable follows the shared host's disk, whose fsync time moves by
	// 40% from one hour to the next, and write-degraded's saturation phase
	// settles, run by run, into committing either three or four batches per
	// round-timeout cycle.
	ungated  bool
	degraded bool // replica 3 stopped 2 s into the paced phase
	rate     int  // paced phase, ops/s over both clients
	// segments is how many fresh clusters a run measures one after the
	// other, each on its share of the run's seconds; a metric is the median
	// of their values. Run-to-run noise is mostly cluster-to-cluster (one
	// cluster runs a tenth faster or slower than the next for as long as it
	// lives), which only several clusters average out. write-degraded is the
	// exception: its numbers are set by round timers, steady from cluster to
	// cluster, but it needs seconds after the fault to reach that steady
	// state, which only one long segment gives it.
	segments int
}

var workloads = []workload{
	{name: "write-hot", keys: 1024, rate: 5000, segments: 3,
		why: "1,024-key overwrite, memory-only: auth, wire, transport, core/flv and smr batching do the work; control for checkpoint, disk and round-closure changes"},
	{name: "write-warm", keys: 4096, preload: true, rate: 2000, segments: 3,
		why: "overwrite of a preloaded 4,096-key store: the full-state checkpoint every 4 instances under the commit lock is the largest single cost"},
	{name: "write-durable", keys: 1024, durable: true, ungated: true, rate: 2000, segments: 3,
		why: "1,024-key overwrite with DataDir and Fsync: WAL append, fsync and on-disk checkpoints sit on every commit while state stays small"},
	{name: "write-degraded", keys: 1024, degraded: true, ungated: true, rate: 300, segments: 1,
		why: "write-hot with replica 3 stopped 2 s into the paced phase: the transport's all-N-or-timeout collect sets every round's pace"},
	{name: "mixed-read90", keys: 4096, preload: true, readPct: 90, rate: 1500, segments: 3,
		why: "90% b+1-certified READs beside 10% writes on the warm store: lock holds on the write side show up as read latency"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func keyName(k int) string { return "k" + fmt.Sprintf("%07d", k) }

// valueFor is the 64-byte value a write of the given per-key version
// stores: the version leads so that checks can order values of one key.
// Version 0 is the preloaded value.
func valueFor(key int, version uint32) string {
	b := make([]byte, 0, valueBytes)
	b = append(b, 'v')
	b = appendPadded(b, uint64(version), 10)
	b = append(b, '.')
	b = appendPadded(b, uint64(key), 7)
	b = append(b, '.')
	for len(b) < valueBytes {
		b = append(b, 'x')
	}
	return string(b)
}

func appendPadded(b []byte, v uint64, width int) []byte {
	s := strconv.FormatUint(v, 10)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

// parseValue is the inverse of valueFor.
func parseValue(v string) (key int, version uint32, err error) {
	if len(v) != valueBytes || v[0] != 'v' || v[11] != '.' || v[19] != '.' {
		return 0, 0, fmt.Errorf("bench: not a benchmark value: %q", v)
	}
	ver, err := strconv.ParseUint(v[1:11], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: bad version in %q", v)
	}
	k, err := strconv.Atoi(v[12:19])
	if err != nil {
		return 0, 0, fmt.Errorf("bench: bad key in %q", v)
	}
	return k, uint32(ver), nil
}

// opSpec is one generated operation. Version is the per-key version a write
// stores (0 for reads).
type opSpec struct {
	read    bool
	key     int
	version uint32
}

// opStream is one client's input: an endless operation sequence that is a
// pure function of (seed, client, workload). A run consumes a prefix of it;
// how long a prefix depends on how fast the cluster is, never on what the
// stream holds.
//
// Writes of client c (0-based) go to keys congruent to c modulo numClients,
// so each key has one writer and its versions are numbered by that writer
// alone; reads draw from the whole keyspace.
type opStream struct {
	rng      *rand.Rand
	client   int
	keys     int
	readPct  int
	versions map[int]uint32
}

func newOpStream(seed int64, client int, w workload) *opStream {
	return &opStream{
		rng:      rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1)),
		client:   client,
		keys:     w.keys,
		readPct:  w.readPct,
		versions: make(map[int]uint32),
	}
}

func (s *opStream) next() opSpec {
	if s.readPct > 0 && s.rng.Intn(100) < s.readPct {
		return opSpec{read: true, key: s.rng.Intn(s.keys)}
	}
	key := s.rng.Intn(s.keys/numClients)*numClients + s.client
	s.versions[key]++
	return opSpec{key: key, version: s.versions[key]}
}

// dueOffset is the open-loop schedule of one client: constant-rate arrivals
// (not Poisson — steadier run to run, and a stall still queues the requests
// that fall due during it), the clients interleaved by half a period.
// It returns the due offset of the i-th operation from the phase start.
func dueOffset(i int, ratePerClient float64, client int) int64 {
	period := 1e9 / ratePerClient
	return int64((float64(i) + float64(client)/numClients) * period)
}
