package interval

// The interval arithmetic below has no caller outside the tests, which
// pin its soundness and algebraic properties.

// Add returns the Minkowski sum [a.Lo+b.Lo, a.Hi+b.Hi].
func (iv Interval) Add(other Interval) Interval {
	if iv.IsEmpty() || other.IsEmpty() {
		return Empty()
	}
	return Interval{Lo: iv.Lo + other.Lo, Hi: iv.Hi + other.Hi}
}

// Sub returns iv - other under interval semantics.
func (iv Interval) Sub(other Interval) Interval {
	if iv.IsEmpty() || other.IsEmpty() {
		return Empty()
	}
	return Interval{Lo: iv.Lo - other.Hi, Hi: iv.Hi - other.Lo}
}

// Scale multiplies both bounds by k, swapping them when k < 0.
func (iv Interval) Scale(k float64) Interval {
	if iv.IsEmpty() {
		return iv
	}
	if k >= 0 {
		return Interval{Lo: iv.Lo * k, Hi: iv.Hi * k}
	}
	return Interval{Lo: iv.Hi * k, Hi: iv.Lo * k}
}

// Mul returns the interval product, the min/max over bound cross products.
func (iv Interval) Mul(other Interval) Interval {
	if iv.IsEmpty() || other.IsEmpty() {
		return Empty()
	}
	a := iv.Lo * other.Lo
	b := iv.Lo * other.Hi
	c := iv.Hi * other.Lo
	d := iv.Hi * other.Hi
	return Interval{
		Lo: minf(minf(a, b), minf(c, d)),
		Hi: maxf(maxf(a, b), maxf(c, d)),
	}
}
