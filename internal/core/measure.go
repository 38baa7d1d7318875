package core

import "math"

// MeasureKind identifies a complex measure attachable to cells alongside
// count (paper Sec. 6.1). Count is the fundamental measure: Lemma 1 shows a
// cell not closed on count is not closed on any measure, so closed pruning
// and checking always run on count, and the complex measure rides along.
type MeasureKind int

const (
	MeasureNone MeasureKind = iota
	MeasureSum              // distributive
	MeasureMin              // distributive
	MeasureMax              // distributive
	MeasureAvg              // algebraic: (sum, count)
)

// String names the measure kind.
func (k MeasureKind) String() string {
	switch k {
	case MeasureNone:
		return "none"
	case MeasureSum:
		return "sum"
	case MeasureMin:
		return "min"
	case MeasureMax:
		return "max"
	case MeasureAvg:
		return "avg"
	default:
		return "unknown"
	}
}

// MeasureAgg incrementally aggregates one complex measure. The zero value is
// not ready to use; construct with NewMeasureAgg.
type MeasureAgg struct {
	Kind  MeasureKind
	sum   float64
	min   float64
	max   float64
	count int64
}

// NewMeasureAgg returns an empty aggregate of the given kind.
func NewMeasureAgg(k MeasureKind) MeasureAgg {
	return MeasureAgg{Kind: k, min: math.Inf(1), max: math.Inf(-1)}
}

// Add folds a single tuple's measure input into the aggregate.
func (a *MeasureAgg) Add(x float64) {
	a.sum += x
	a.count++
	if x < a.min {
		a.min = x
	}
	if x > a.max {
		a.max = x
	}
}

// Combine folds another aggregate into a (distributive/algebraic combine).
func (a *MeasureAgg) Combine(b MeasureAgg) {
	a.sum += b.sum
	a.count += b.count
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// Stored returns the aggregate's stored (mergeable) value: the running sum
// for Sum and Avg — avg is the algebraic pair (sum, count), and count is
// always carried separately — and the extremum for Min/Max. Stored values of
// the same kind combine with CombineStored; Present recovers the user-facing
// value. Engines and the cubestore exchange stored values so that shard
// merges, residual folds and router scatters stay exact for every kind.
func (a MeasureAgg) Stored() float64 {
	switch a.Kind {
	case MeasureMin:
		return a.min
	case MeasureMax:
		return a.max
	default:
		return a.sum
	}
}

// StoredIdentity returns the identity element of CombineStored for the kind:
// combining it with any stored value x yields x.
func StoredIdentity(k MeasureKind) float64 {
	switch k {
	case MeasureMin:
		return math.Inf(1)
	case MeasureMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

// CombineStored merges two stored aggregates of the same kind: addition for
// Sum/Avg (distributive sum; avg's algebraic pair adds component-wise), the
// extremum for Min/Max. The operation is associative and commutative, so
// merge order never changes the result for integer-valued inputs.
func CombineStored(k MeasureKind, a, b float64) float64 {
	switch k {
	case MeasureMin:
		if b < a {
			return b
		}
		return a
	case MeasureMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// FoldStored aggregates the measure column aux over the tuples tids into the
// stored aggregate of kind — what a cell covering exactly those tuples emits.
// MeasureNone folds to 0, the aux of a run without a measure.
func FoldStored(k MeasureKind, aux []float64, tids []TID) float64 {
	if k == MeasureNone {
		return 0
	}
	acc := StoredIdentity(k)
	for _, tid := range tids {
		acc = CombineStored(k, acc, aux[tid])
	}
	return acc
}

// Present converts a stored aggregate plus its cell count to the user-facing
// measure value: the mean for Avg, the stored value otherwise. An empty
// (count 0) min/max/avg presents as NaN, matching MeasureAgg.Value.
func Present(k MeasureKind, stored float64, count int64) float64 {
	switch k {
	case MeasureAvg:
		if count == 0 {
			return math.NaN()
		}
		return stored / float64(count)
	case MeasureMin, MeasureMax:
		if count == 0 {
			return math.NaN()
		}
		return stored
	default:
		return stored
	}
}

// Value returns the aggregate's final measure value. For an empty aggregate
// it returns NaN for min/max/avg and 0 for sum.
func (a MeasureAgg) Value() float64 {
	switch a.Kind {
	case MeasureSum:
		return a.sum
	case MeasureMin:
		if a.count == 0 {
			return math.NaN()
		}
		return a.min
	case MeasureMax:
		if a.count == 0 {
			return math.NaN()
		}
		return a.max
	case MeasureAvg:
		if a.count == 0 {
			return math.NaN()
		}
		return a.sum / float64(a.count)
	default:
		return 0
	}
}
