package corpus

type table struct {
	rows map[int]string
}

func RangeLocalAndField(tb *table) {
	local := make(map[int]bool)
	for range local { // want "iteration over map local"
	}
	for range tb.rows { // want "iteration over map tb.rows"
	}
}
