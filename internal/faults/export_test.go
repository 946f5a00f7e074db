package faults

// Degrade scripts a capacity degradation to scale× on [fromTick, toTick),
// restoring full capacity at toTick.
func Degrade(link string, fromTick, toTick int64, scale float64) Schedule {
	return Schedule{
		{AtTick: fromTick, Link: link, Kind: CapacityScale, Value: scale},
		{AtTick: toTick, Link: link, Kind: CapacityScale, Value: 1},
	}
}

// Name returns the scenario label.
func (s *Scenario) Name() string { return s.name }

// Done reports whether every scheduled event has fired.
func (s *Scenario) Done() bool { return s.next >= len(s.events) }

// LinksDown returns how many links the scenario currently holds down.
func (s *Scenario) LinksDown() int { return len(s.down) }
