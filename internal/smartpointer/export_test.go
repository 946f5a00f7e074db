package smartpointer

// FramesEmitted returns per-stream frame counts.
func (w *Workload) FramesEmitted() [3]uint64 {
	var out [3]uint64
	for i, src := range w.sources {
		out[i] = src.Frames()
	}
	return out
}
