package live

// Rebind migrates stream id to the given shard at the owner's next tick
// boundary (see shard.Plane.Rebind).
func (d *ShardedDriver) Rebind(id, shardIdx int) error {
	return d.plane.Rebind(id, shardIdx)
}
