package registry

// UnregisteredOK lists exported constructor-shaped functions of the
// algorithm packages that deliberately have no registry entry, each with
// the reason. busylint/registryhygiene reads this literal: a constructor
// must either be referenced from this package or appear here with a
// non-empty reason, and entries for registered or nonexistent
// constructors are flagged as stale, so the list can never drift from
// the code.
var UnregisteredOK = map[string]string{
	"repro/internal/core.NewSchedule":            "empty-schedule constructor used by every algorithm; not an algorithm itself",
	"repro/internal/core.BucketFirstFit":         "fixed-β building block; registered through BucketFirstFitAuto, which picks β and transposes",
	"repro/internal/core.SingleCut":              "deliberately weakened single-offset cut, exposed only for the E14 ablation against BestCut",
	"repro/internal/core.CliqueSetCoverModified": "modified-weight half of clique-set-cover, exposed only for the E14 ablation",
	"repro/internal/core.CliqueSetCoverPlain":    "plain-span half of clique-set-cover, exposed only for the E14 ablation",
	"repro/internal/core.CliqueAlg1":             "large-throughput half of clique-throughput (Lemma 4.1); CliqueThroughput takes the better of the two",
	"repro/internal/core.CliqueAlg2":             "small-throughput half of clique-throughput (Lemma 4.2); CliqueThroughput takes the better of the two",
}
