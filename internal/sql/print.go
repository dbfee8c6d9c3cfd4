package sql

// String renders a projection item as SQL, as EXPLAIN's plan names it.
func (it SelectItem) String() string {
	switch it.Agg {
	case AggSum:
		return "SUM(" + it.Column + ")"
	case AggAvg:
		return "AVG(" + it.Column + ")"
	case AggMin:
		return "MIN(" + it.Column + ")"
	case AggMax:
		return "MAX(" + it.Column + ")"
	case AggCount:
		return "COUNT(*)"
	default:
		return it.Column
	}
}
