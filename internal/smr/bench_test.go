package smr

import (
	"fmt"
	"testing"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/obs"
	"genconsensus/internal/storage"
)

// benchValue is the 64-byte value bench/ writes, so envelopes here have the
// size the cluster carries (~170 bytes).
const benchValue = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func benchSigned(b *testing.B, signer *auth.ClientSigner, seq uint64) model.Value {
	b.Helper()
	cmd, err := kv.SignedCommand(signer, seq, "SET", fmt.Sprintf("key-%04d", seq%1024), benchValue)
	if err != nil {
		b.Fatal(err)
	}
	return cmd
}

// nullSM isolates the replica's own bookkeeping from the state machine.
type nullSM struct{}

func (nullSM) Apply(model.Value) string       { return "" }
func (nullSM) SeqApplied(uint32, uint64) bool { return false }

// BenchmarkReplicaCommit is Commit at the shape of saturation: command
// authentication on, a queue of pending commands, each decided batch the 64
// oldest of them (two clients interleaved), the queue topped up again
// outside the timer. Reported per committed command. The store cases run
// over an authenticated kv.Store, so they time the apply and the prune
// pass that asks the store about every queued command, at three queue
// depths; the null-sm case is the replica's bookkeeping alone.
func BenchmarkReplicaCommit(b *testing.B) {
	b.Run("null-sm", func(b *testing.B) {
		benchReplicaCommit(b, 1024, func(*AuthContext) StateMachine { return nullSM{} })
	})
	for _, depth := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("store/depth-%d", depth), func(b *testing.B) {
			benchReplicaCommit(b, depth, func(ax *AuthContext) StateMachine { return authKVStore(ax) })
		})
	}
}

func benchReplicaCommit(b *testing.B, pendingDepth int, newSM func(*AuthContext) StateMachine) {
	const batchSize = 64
	kr := auth.NewClientKeyring(testClientSeed, 4)
	ax := NewAuthContext(kr, 0)
	signers := []*auth.ClientSigner{auth.NewClientSigner(testClientSeed, 1), auth.NewClientSigner(testClientSeed, 2)}
	r := NewReplica(0, newSM(ax))
	r.SetCommandAuth(ax)
	r.SetMetrics(MetricsFor(obs.NewRegistry(), "")) // the node always installs them
	next := uint64(0)
	var queue []model.Value
	submit := func(n int) {
		for i := 0; i < n; i++ {
			next++
			cmd := benchSigned(b, signers[next%2], next/2+1)
			if !r.Submit(cmd) {
				b.Fatalf("submit %d refused", next)
			}
			queue = append(queue, cmd)
		}
	}
	submit(pendingDepth)
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i += batchSize {
		decided, err := EncodeBatch(queue[:batchSize])
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r.Commit(decided)
		b.StopTimer()
		queue = queue[batchSize:]
		r.Log.Reset(0)
		submit(batchSize)
	}
	if got := r.PendingLen(); got != pendingDepth {
		b.Fatalf("%d pending after the run, want %d", got, pendingDepth)
	}
}

// BenchmarkCommandChooser is one line-11 evaluation at the node's shape:
// four digest votes, each naming a different 64-command signed batch,
// resolved through a DigestTable and weighed. Every batch was judged before
// the timer starts, as a pipelined instance's later rounds find them.
func BenchmarkCommandChooser(b *testing.B) {
	const batchSize = 64
	ax := NewAuthContext(auth.NewClientKeyring(testClientSeed, 4), 0)
	signer := auth.NewClientSigner(testClientSeed, 1)
	digests := NewDigestTable()
	mu := make(model.Received, 4)
	seq := uint64(0)
	for p := model.PID(0); p < 4; p++ {
		cmds := make([]model.Value, batchSize)
		for i := range cmds {
			seq++
			cmds[i] = benchSigned(b, signer, seq)
		}
		batch, err := EncodeBatch(cmds)
		if err != nil {
			b.Fatal(err)
		}
		mu[p] = model.Message{Kind: model.SelectionRound, Vote: digests.Put(batch)}
	}
	chooser := CommandChooser{Auth: ax, Resolve: digests}
	if v, _ := chooser.Choose(mu); v == NoOp {
		b.Fatal("chose NoOp over four signed batches")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chooser.Choose(mu)
	}
}

// BenchmarkIdentifyHit is the repeat judgement of an envelope the context
// has already verified — what every chooser evaluation, the commit and the
// apply pay per command — over two clients' full windows of commands.
func BenchmarkIdentifyHit(b *testing.B) {
	ax := NewAuthContext(auth.NewClientKeyring(testClientSeed, 4), 0)
	signers := []*auth.ClientSigner{auth.NewClientSigner(testClientSeed, 1), auth.NewClientSigner(testClientSeed, 2)}
	cmds := make([]model.Value, 2*kv.DefaultSeqWindow)
	for i := range cmds {
		cmds[i] = benchSigned(b, signers[i%2], uint64(i/2+1))
		if !ax.identify(cmds[i]).ok {
			b.Fatal("genuine envelope rejected")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ax.identify(cmds[i%len(cmds)]).ok {
			b.Fatal("verdict lost")
		}
	}
}

// BenchmarkIdentifyMiss is the first judgement of an envelope: parse, HMAC,
// store the verdict. The context is replaced as the commands run out so
// every call is a miss.
func BenchmarkIdentifyMiss(b *testing.B) {
	kr := auth.NewClientKeyring(testClientSeed, 4)
	signer := auth.NewClientSigner(testClientSeed, 1)
	cmds := make([]model.Value, 4096)
	for i := range cmds {
		cmds[i] = benchSigned(b, signer, uint64(i+1))
	}
	ax := NewAuthContext(kr, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(cmds) == 0 {
			b.StopTimer()
			ax = NewAuthContext(kr, 0)
			b.StartTimer()
		}
		if !ax.identify(cmds[i%len(cmds)]).ok {
			b.Fatal("genuine envelope rejected")
		}
	}
}

// BenchmarkDurableCheckpoint is the durable commit path at write-warm's
// shape: a 4,096-key store, 64-command signed batches, Interval 4 and a
// Disk backend with fsync off. One op is one committed batch: its WAL
// append, its apply, and its share of the checkpoints every fourth batch
// cuts and of those the disk persists. Batches are signed outside the
// timer.
func BenchmarkDurableCheckpoint(b *testing.B) {
	const keys, batchSize, chunk = 4096, 64, 64
	ax := NewAuthContext(auth.NewClientKeyring(testClientSeed, 4), 0)
	signer := auth.NewClientSigner(testClientSeed, 1)
	store := kv.NewStore()
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%04d", k)
		store.Apply(kv.Command(key, "SET", key, benchValue))
	}
	store.EnableClientAuth(ax, 0)
	r := NewReplica(0, store)
	r.SetCommandAuth(ax)
	r.SetMetrics(MetricsFor(obs.NewRegistry(), ""))
	d, err := storage.OpenDisk(storage.DiskConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = d.Close() })
	r.SetBackend(d, func(err error) { b.Fatal(err) })
	mgr, err := NewSnapshotManager(r, SnapshotConfig{Interval: 4})
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := Restore(r, mgr, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	seq := uint64(0)
	batches := make([]model.Value, 0, chunk)
	sign := func() {
		batches = batches[:0]
		cmds := make([]model.Value, batchSize)
		for len(batches) < chunk {
			for j := range cmds {
				seq++
				cmd, err := kv.SignedCommand(signer, seq, "SET", fmt.Sprintf("key-%04d", seq%keys), benchValue)
				if err != nil {
					b.Fatal(err)
				}
				cmds[j] = cmd
			}
			v, err := EncodeBatch(cmds)
			if err != nil {
				b.Fatal(err)
			}
			batches = append(batches, v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%chunk == 0 {
			b.StopTimer()
			sign()
			b.StartTimer()
		}
		if q.Deliver(q.NextCommit(), batches[i%chunk]) != 1 {
			b.Fatal("batch did not commit")
		}
	}
}
