package gateway

import (
	"fmt"
	"testing"

	"dledger/internal/mempool"
)

// FuzzCommitVerify: a commit proof comes from a node the client does not
// trust. The target mints the genuine commit of one transaction of an
// n-transaction block, as the hub does, changes one of its fields or the
// transaction by the fuzzer's choice and asks Verify. Verify must never
// panic, must accept the genuine commit, and may accept a changed one only
// when it still names, under the block's real root, the transaction at its
// real position (Count is not bound by the root, so a changed Count alone
// can pass).
func FuzzCommitVerify(f *testing.F) {
	for field := uint8(0); field < 6; field++ {
		f.Add(uint8(5), uint8(3), field, uint16(7), byte(1))
	}
	f.Add(uint8(0), uint8(0), uint8(3), uint16(0), byte(0x80))
	f.Add(uint8(63), uint8(62), uint8(4), uint16(0), byte(0x7f))
	f.Fuzz(func(t *testing.T, n, idx, field uint8, at uint16, flip byte) {
		count := int(n)%64 + 1
		txs := make([][]byte, count)
		hashes := make([]mempool.Hash, count)
		for i := range txs {
			txs[i] = []byte(fmt.Sprintf("tx-%d", i))
			hashes[i] = mempool.HashTx(txs[i])
		}
		h := &Hub{blocks: map[blockID]*proofBlock{{epoch: 1}: {hashes: hashes}}}
		c, ok := h.commitLocked(txRef{id: blockID{epoch: 1}, index: int(idx) % count})
		if !ok || !c.Verify(txs[c.Index]) {
			t.Fatalf("genuine commit %+v rejected", c)
		}
		root, tx := c.Root, txs[c.Index]
		switch field % 6 {
		case 0:
			c.TxHash[at%32] ^= flip
		case 1:
			c.Root[at%32] ^= flip
		case 2:
			if len(c.Path) > 0 {
				c.Path = append(c.Path[:0:0], c.Path...)
				c.Path[int(at)%len(c.Path)][at/256%32] ^= flip
			}
		case 3:
			c.Index += int(int8(flip))
		case 4:
			c.Count += int(int8(flip))
		case 5:
			tx = append(append([]byte(nil), tx...), flip)
		}
		if !c.Verify(tx) {
			return
		}
		if c.Root != root || c.Index < 0 || c.Index >= count || mempool.HashTx(tx) != hashes[c.Index] {
			t.Fatalf("changed commit %+v verifies for tx %q", c, tx)
		}
	})
}
