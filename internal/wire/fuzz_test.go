package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dledger/internal/merkle"
)

// FuzzDecode is the native fuzz target for the envelope codec. Its seed
// corpus (testdata/fuzz/FuzzDecode, committed) holds known-tricky
// encodings — truncated headers, giant length prefixes, proof-path
// overruns, trailing bytes — so every plain `go test` run exercises
// them even when the fuzzer itself is not running.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Envelope{From: 1, Epoch: 2, Proposer: 3, Payload: RequestChunk{}}.Encode())
	f.Add(Envelope{From: 0, Epoch: 1, Proposer: 0, Payload: BVal{Round: 1, Value: true}}.Encode())
	for _, seed := range goldenSeeds(f, "env-") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode canonically: same bytes,
		// size matching WireSize, and a stable second round trip.
		re := env.Encode()
		if len(re) != env.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", env.WireSize(), len(re))
		}
		env2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of valid encoding failed: %v", err)
		}
		if !bytes.Equal(env2.Encode(), re) {
			t.Fatal("encoding not canonical across a round trip")
		}
		if !reflect.DeepEqual(env, env2) {
			t.Fatalf("decode is not stable:\n%+v\n%+v", env, env2)
		}
	})
}

// FuzzDecodeBlock covers the block codec, which parses bytes retrieved
// from potentially Byzantine dispersals.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Block{Proposer: 1, Epoch: 2, V: []uint64{1, InfEpoch}, Txs: [][]byte{[]byte("tx")}}).Encode())
	f.Add(golden(f, "block", nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := DecodeBlock(data)
		if err != nil {
			return
		}
		re := blk.Encode()
		blk2, err := DecodeBlock(re)
		if err != nil {
			t.Fatalf("re-decode of valid block failed: %v", err)
		}
		if !bytes.Equal(blk2.Encode(), re) {
			t.Fatal("block encoding not canonical across a round trip")
		}
		if !reflect.DeepEqual(blk, blk2) {
			t.Fatalf("decode is not stable:\n%+v\n%+v", blk, blk2)
		}
	})
}

// TestDecodeNeverPanicsOnRandomBytes hammers Decode with random byte
// strings: a malicious peer controls every byte after the transport
// handshake, so decoding must fail cleanly, never panic or over-allocate.
func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		if n > 0 {
			// Bias the type byte toward valid codes so decoding gets past
			// the first switch often.
			buf[0] = byte(rng.Intn(14))
		}
		Decode(buf) // must not panic
	}
}

// TestDecodeNeverPanicsOnMutatedValid flips bytes of valid encodings.
func TestDecodeNeverPanicsOnMutatedValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var root merkle.Root
	rng.Read(root[:])
	data := make([]byte, 64)
	rng.Read(data)
	msgs := []Msg{
		Chunk{Root: root, Data: data, Proof: merkle.Proof{Index: 3, Leaves: 16, Path: make([]merkle.Root, 4)}},
		ReturnChunk{Root: root, Data: data, Proof: merkle.Proof{Index: 1, Leaves: 4, Path: make([]merkle.Root, 2)}},
		GotChunk{Root: root},
		BVal{Round: 7, Value: true},
		Term{Value: false},
	}
	for _, m := range msgs {
		enc := Envelope{From: 1, Epoch: 9, Proposer: 2, Payload: m}.Encode()
		for trial := 0; trial < 2000; trial++ {
			mut := append([]byte(nil), enc...)
			for flips := 0; flips < 1+rng.Intn(4); flips++ {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			if env, err := Decode(mut); err == nil {
				// If it decodes, re-encoding must be stable (canonical).
				if env.Payload == nil {
					t.Fatal("decoded envelope with nil payload")
				}
				env.Encode()
			}
		}
	}
}

// TestDecodeBlockNeverPanics does the same for the block codec, which
// parses content retrieved from potentially Byzantine dispersals.
func TestDecodeBlockNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50_000; i++ {
		buf := make([]byte, rng.Intn(300))
		rng.Read(buf)
		DecodeBlock(buf)
	}
	// Mutations of a valid block.
	valid := (&Block{
		Proposer: 2, Epoch: 5,
		V:   []uint64{1, 2, 3, InfEpoch},
		Txs: [][]byte{[]byte("one"), []byte("two")},
	}).Encode()
	for trial := 0; trial < 20_000; trial++ {
		mut := append([]byte(nil), valid...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		if blk, err := DecodeBlock(mut); err == nil {
			blk.Encode() // round-trip must not panic either
		}
	}
}

// TestEncodeDecodeIdentityExhaustiveSmall round-trips every message type
// with many random payload shapes.
func TestEncodeDecodeIdentityExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		var root merkle.Root
		rng.Read(root[:])
		proof := merkle.Proof{
			Index:  rng.Intn(1 << 16),
			Leaves: rng.Intn(1 << 16),
			Path:   make([]merkle.Root, rng.Intn(20)),
		}
		for i := range proof.Path {
			rng.Read(proof.Path[i][:])
		}
		data := make([]byte, rng.Intn(500))
		rng.Read(data)
		msgs := []Msg{
			Chunk{Root: root, Data: data, Proof: proof},
			ReturnChunk{Root: root, Data: data, Proof: proof},
			GotChunk{Root: root},
			Ready{Root: root},
			RequestChunk{},
			CancelRequest{},
			BVal{Round: rng.Uint32(), Value: rng.Intn(2) == 0},
			Aux{Round: rng.Uint32(), Value: rng.Intn(2) == 0},
			Term{Value: rng.Intn(2) == 0},
			RequestChunkAgain{},
			StatusRequest{},
			StatusReply{Decided: rng.Intn(2) == 0, Through: rng.Uint64(),
				S: SetBitmap([]int{rng.Intn(64)}, 64)},
		}
		env := Envelope{
			From:     rng.Intn(1 << 16),
			Epoch:    rng.Uint64(),
			Proposer: rng.Intn(1 << 16),
			Payload:  msgs[rng.Intn(len(msgs))],
		}
		enc := env.Encode()
		if len(enc) != env.WireSize() {
			t.Fatalf("WireSize mismatch for %T", env.Payload)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of valid %T failed: %v", env.Payload, err)
		}
		re := dec.Encode()
		if string(re) != string(enc) {
			t.Fatalf("%T: decode/encode not canonical", env.Payload)
		}
	}
}
