package engine

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvBlock is how many records ImportCSV parses before it appends them.
const csvBlock = 512

// ImportCSV appends rows from CSV data. Each record must carry exactly
// TupleWords() unsigned integer fields (wide fields take several columns).
// A header row is skipped when its first cell is not numeric. Returns the
// number of rows appended: the records before a bad one, or before the
// first that does not fit, are appended, in blocks of csvBlock.
func (t *Table) ImportCSV(r io.Reader) (int, error) {
	cr := csv.NewReader(r)
	L := t.Schema().TupleWords()
	cr.FieldsPerRecord = L
	vals := make([]uint64, csvBlock*L)
	block := make([][]uint64, 0, csvBlock)
	n := 0 // rows appended
	flush := func() error {
		k, err := t.AppendRows(block)
		n += k
		block = block[:0]
		return err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			err := flush()
			return n, err
		}
		if err != nil {
			if err := flush(); err != nil {
				return n, err
			}
			return n, fmt.Errorf("engine: csv: %w", err)
		}
		row := vals[len(block)*L : (len(block)+1)*L]
		skip := false
		for i, cell := range rec {
			v, err := strconv.ParseUint(cell, 10, 64)
			if err != nil {
				if n+len(block) == 0 && i == 0 {
					skip = true // header row
					break
				}
				if err := flush(); err != nil {
					return n, err
				}
				return n, fmt.Errorf("engine: csv row %d field %d: %w", n+1, i+1, err)
			}
			row[i] = v
		}
		if skip {
			continue
		}
		block = append(block, row)
		if len(block) == csvBlock {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
}

// ExportCSV writes a header row (field names, wide fields suffixed with
// _0.._k) followed by every live tuple, read with one fetch; at a failed
// read, the tuples before it are written.
func (t *Table) ExportCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	var header []string
	for _, f := range t.Schema().Fields {
		if f.Words == 1 {
			header = append(header, f.Name)
			continue
		}
		for k := 0; k < f.Words; k++ {
			header = append(header, fmt.Sprintf("%s_%d", f.Name, k))
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	L := t.Schema().TupleWords()
	vals, n, err := t.fetch(All, appendWords(nil, 0, L))
	rec := make([]string, L)
	for i := 0; i < n; i++ {
		for k, v := range vals[i*L : (i+1)*L] {
			rec[k] = strconv.FormatUint(v, 10)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
