package proxy

// FlightWaiters reports how many requests wait on the in-progress flight
// for (arch, class); 0 when there is none.
func (p *Proxy) FlightWaiters(arch, class string) int {
	p.flightMu.Lock()
	defer p.flightMu.Unlock()
	if f, ok := p.flights[arch+"\x00"+class]; ok {
		return f.waiters
	}
	return 0
}
