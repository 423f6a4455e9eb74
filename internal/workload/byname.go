package workload

import (
	"fmt"

	"repro/internal/job"
)

// Names lists the one-dimensional workload families ByName resolves, in
// presentation order.
func Names() []string {
	return []string{
		"general", "clique", "proper", "proper-clique", "one-sided",
		"cloud", "lightpaths", "arrivals", "bursty", "weighted",
	}
}

// ByName generates the named one-dimensional workload family — the shared
// resolver behind the -workload flags of busysim and its subcommands.
// Families needing extra parameters (adversarial, Figure 3) have their own
// constructors.
func ByName(family string, seed int64, c Config) (job.Instance, error) {
	if err := c.Err(); err != nil {
		return job.Instance{}, err
	}
	switch family {
	case "general":
		return General(seed, c), nil
	case "clique":
		return Clique(seed, c), nil
	case "proper":
		return Proper(seed, c), nil
	case "proper-clique":
		return ProperClique(seed, c), nil
	case "one-sided":
		return OneSided(seed, c, true), nil
	case "cloud":
		return Cloud(seed, c), nil
	case "lightpaths":
		return Lightpaths(seed, c), nil
	case "arrivals":
		return Arrivals(seed, c), nil
	case "bursty":
		return BurstyArrivals(seed, c), nil
	case "weighted":
		return WeightedArrivals(seed, c), nil
	default:
		return job.Instance{}, fmt.Errorf("unknown workload %q", family)
	}
}
