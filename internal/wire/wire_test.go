package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dledger/internal/merkle"
)

func sampleProof(rng *rand.Rand, pathLen int) merkle.Proof {
	p := merkle.Proof{Index: rng.Intn(100), Leaves: 128}
	for i := 0; i < pathLen; i++ {
		var r merkle.Root
		rng.Read(r[:])
		p.Path = append(p.Path, r)
	}
	return p
}

func allMessages(rng *rand.Rand) []Msg {
	var root merkle.Root
	rng.Read(root[:])
	data := make([]byte, 100)
	rng.Read(data)
	return []Msg{
		Chunk{Root: root, Data: data, Proof: sampleProof(rng, 7)},
		GotChunk{Root: root},
		Ready{Root: root},
		RequestChunk{},
		ReturnChunk{Root: root, Data: data, Proof: sampleProof(rng, 3)},
		CancelRequest{},
		BVal{Round: 3, Value: true},
		Aux{Round: 9, Value: false},
		Term{Value: true},
	}
}

func TestEnvelopeRoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, msg := range allMessages(rng) {
		env := Envelope{From: 5, Epoch: 42, Proposer: 7, Payload: msg}
		enc := env.Encode()
		if len(enc) != env.WireSize() {
			t.Fatalf("%T: encoded %d bytes, WireSize says %d", msg, len(enc), env.WireSize())
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if dec.From != env.From || dec.Epoch != env.Epoch || dec.Proposer != env.Proposer {
			t.Fatalf("%T: header mismatch: %+v", msg, dec)
		}
		// Re-encode must be byte-identical (canonical encoding).
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("%T: re-encode differs", msg)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, msg := range allMessages(rng) {
		env := Envelope{From: 1, Epoch: 2, Proposer: 3, Payload: msg}
		enc := env.Encode()
		for cut := 0; cut < len(enc); cut++ {
			if _, err := Decode(enc[:cut]); err == nil {
				// Empty-body messages may decode at exactly header size.
				if cut == envelopeHeader && msg.BodySize() == 0 {
					continue
				}
				t.Fatalf("%T: truncation to %d bytes decoded without error", msg, cut)
			}
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	env := Envelope{From: 1, Epoch: 2, Proposer: 3, Payload: Ready{}}
	enc := append(env.Encode(), 0xff)
	if _, err := Decode(enc); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeUnknownType(t *testing.T) {
	env := Envelope{From: 1, Epoch: 2, Proposer: 3, Payload: Ready{}}
	enc := env.Encode()
	enc[0] = 0xEE
	if _, err := Decode(enc); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestPriorityClassification(t *testing.T) {
	// Only the messages that carry block bytes ride the low class; the
	// chunk requests and their cancels share the high class with each
	// other, so a cancel cannot overtake the request it cancels.
	for _, msg := range []Msg{
		Chunk{}, GotChunk{}, Ready{}, BVal{}, Aux{}, Term{},
		RequestChunk{}, RequestChunkAgain{}, CancelRequest{},
		StatusRequest{}, StatusReply{}, SyncHello{}, SyncOffer{}, SyncPull{},
	} {
		if got := PriorityOf(msg); got != PrioDispersal {
			t.Errorf("%T: priority %v, want dispersal", msg, got)
		}
	}
	for _, msg := range []Msg{ReturnChunk{}, SyncPage{}} {
		if got := PriorityOf(msg); got != PrioRetrieval {
			t.Errorf("%T: priority %v, want retrieval", msg, got)
		}
	}
}

func TestChunkPayloadRoundTrip(t *testing.T) {
	f := func(payload []byte, epoch uint64, from, proposer uint16) bool {
		rng := rand.New(rand.NewSource(int64(epoch)))
		env := Envelope{
			From: int(from), Epoch: epoch, Proposer: int(proposer),
			Payload: Chunk{Root: merkle.HashLeaf(payload), Data: payload, Proof: sampleProof(rng, 5)},
		}
		dec, err := Decode(env.Encode())
		if err != nil {
			return false
		}
		c := dec.Payload.(Chunk)
		return bytes.Equal(c.Data, payload) && c.Root == merkle.HashLeaf(payload) && len(c.Proof.Path) == 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	b := &Block{
		Proposer: 3,
		Epoch:    17,
		V:        []uint64{0, 5, InfEpoch, 2},
		Txs:      [][]byte{[]byte("tx one"), {}, []byte("tx three")},
	}
	enc := b.Encode()
	if len(enc) != b.EncodedSize() {
		t.Fatalf("EncodedSize %d != len(Encode) %d", b.EncodedSize(), len(enc))
	}
	got, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Proposer != b.Proposer || got.Epoch != b.Epoch {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.V) != len(b.V) {
		t.Fatalf("V length mismatch")
	}
	for i := range b.V {
		if got.V[i] != b.V[i] {
			t.Fatalf("V[%d] mismatch", i)
		}
	}
	if len(got.Txs) != len(b.Txs) {
		t.Fatalf("tx count mismatch")
	}
	for i := range b.Txs {
		if !bytes.Equal(got.Txs[i], b.Txs[i]) {
			t.Fatalf("tx %d mismatch", i)
		}
	}
}

func TestBlockDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 11),
		append((&Block{V: []uint64{1}, Txs: [][]byte{[]byte("x")}}).Encode(), 9),
	}
	for i, c := range cases {
		if _, err := DecodeBlock(c); err == nil {
			t.Fatalf("case %d: garbage decoded as block", i)
		}
	}
}

func TestBlockDecodeHugeTxCountDoesNotAllocate(t *testing.T) {
	// A malicious block header can claim 2^32-1 transactions; decoding must
	// fail gracefully rather than allocating unbounded memory.
	b := &Block{Proposer: 0, Epoch: 1, V: []uint64{0}}
	enc := b.Encode()
	enc[len(enc)-4] = 0xff
	enc[len(enc)-3] = 0xff
	enc[len(enc)-2] = 0xff
	enc[len(enc)-1] = 0xff
	if _, err := DecodeBlock(enc); err == nil {
		t.Fatal("block with absurd tx count decoded")
	}
}

func TestBlockPayloadBytes(t *testing.T) {
	b := &Block{Txs: [][]byte{make([]byte, 10), make([]byte, 32)}}
	if got := b.PayloadBytes(); got != 42 {
		t.Fatalf("PayloadBytes = %d, want 42", got)
	}
}

func TestGotChunkOverheadMatchesPaper(t *testing.T) {
	// §3.2: AVID-M's per-message overhead is a single hash (32 bytes) plus
	// small routing headers, independent of N. Pin the envelope size so a
	// refactor cannot silently bloat the protocol.
	env := Envelope{From: 0, Epoch: 0, Proposer: 0, Payload: GotChunk{}}
	if got := env.WireSize(); got != 45 { // 13-byte header + 32-byte root
		t.Fatalf("GotChunk envelope is %d bytes, want 45", got)
	}
}

func TestEnvelopeAppendToMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, msg := range allMessages(rng) {
		env := Envelope{From: 5, Epoch: 42, Proposer: 7, Payload: msg}
		want := env.Encode()
		buf := make([]byte, 0, env.WireSize()+8)
		got := env.AppendTo(buf)
		if !bytes.Equal(got, want) {
			t.Fatalf("%T: AppendTo differs from Encode", msg)
		}
		if cap(buf) > 0 && &got[0] != &buf[:1][0] {
			t.Fatalf("%T: AppendTo reallocated despite sufficient capacity", msg)
		}
	}
}

// The transport frames every outbound message through AppendTo into a
// pooled buffer; with capacity for WireSize bytes the serialization
// itself must not allocate.
func TestEnvelopeAppendToDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, msg := range allMessages(rng) {
		env := Envelope{From: 1, Epoch: 9, Proposer: 3, Payload: msg}
		buf := make([]byte, 0, env.WireSize())
		n := testing.AllocsPerRun(100, func() {
			env.AppendTo(buf[:0])
		})
		if n != 0 {
			t.Fatalf("%T: AppendTo allocates %v times per run into a presized buffer, want 0", msg, n)
		}
	}
}
