package netsim

// TryRecv returns a message if one has already arrived, without
// blocking or advancing the clock.
func (p *Proc) TryRecv() (Msg, bool) {
	if len(p.inbox) > 0 && p.inbox[0].Arrived <= p.now {
		m := p.inbox[0]
		p.inbox = p.inbox[1:]
		return m, true
	}
	return Msg{}, false
}
