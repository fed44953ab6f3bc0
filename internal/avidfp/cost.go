package avidfp

import "fmt"

// DispersalCost runs one full AVID-FP dispersal in-process and returns the
// number of bytes each server downloads (receives), which is the quantity
// Fig 2 of the paper plots (normalized by block size). Self-addressed
// broadcast copies do not cross the network and are not counted.
func DispersalCost(p Params, block []byte) ([]int64, error) {
	servers := make([]*Server, p.N)
	for i := range servers {
		servers[i] = NewServer(p, i)
	}
	recv := make([]int64, p.N)

	type qmsg struct {
		from, to int
		msg      Msg
	}
	var queue []qmsg
	frags, err := Disperse(p, block)
	if err != nil {
		return nil, err
	}
	const clientID = -2
	for i, f := range frags {
		queue = append(queue, qmsg{clientID, i, f})
	}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if m.from != m.to {
			recv[m.to] += int64(m.msg.Size())
		}
		outs, _ := servers[m.to].Handle(m.from, m.msg)
		for _, s := range outs {
			if s.To == Broadcast {
				for to := range servers {
					queue = append(queue, qmsg{m.to, to, s.Msg})
				}
			} else {
				queue = append(queue, qmsg{m.to, s.To, s.Msg})
			}
		}
	}
	for i, s := range servers {
		if !s.Completed() {
			return nil, errNotCompleted(i)
		}
	}
	return recv, nil
}

type errNotCompleted int

func (e errNotCompleted) Error() string {
	return fmt.Sprintf("avidfp: server %d did not complete dispersal", int(e))
}
