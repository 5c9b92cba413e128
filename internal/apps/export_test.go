package apps

import "math"

// CompletedTasks returns the tasks finished up to now (including those on
// still-held nodes).
func (p *PSA) CompletedTasks() int {
	n := p.completed
	now := p.now()
	for _, nd := range p.nodes {
		limit := math.Min(now, nd.stopAt)
		if k := math.Floor((limit - nd.taskStart) / p.cfg.TaskDuration); k > 0 {
			n += int(k)
		}
	}
	return n
}
