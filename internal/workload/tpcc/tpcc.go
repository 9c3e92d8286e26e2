package tpcc

import (
	"math/rand"

	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/rt"
	"abyss1000/internal/storage"
)

// Config parameterizes the TPC-C database and mix.
type Config struct {
	// Warehouses is the scale factor (the paper runs 4 and 1024).
	Warehouses int

	// DistrictsPerWarehouse is 10 in the specification.
	DistrictsPerWarehouse int

	// CustomersPerDistrict is 3000 in the specification; scaled down by
	// default (transaction footprints are size-independent, §5.6).
	CustomersPerDistrict int

	// Items is 100 000 in the specification; scaled down by default.
	// Each warehouse stocks every item.
	Items int

	// PaymentPct is the fraction of Payment transactions; the rest are
	// NewOrder (the paper runs 50/50; the spec mix for these two is
	// 43/45). Set 1 or 0 for the single-transaction plots (Figs. 16b,
	// 16c, 17b, 17c).
	PaymentPct float64

	// RemotePaymentPct is the probability a Payment pays a customer of
	// a remote warehouse (spec: 15%).
	RemotePaymentPct float64

	// RemoteItemPct is the per-item probability a NewOrder line is
	// supplied by a remote warehouse (spec: 1%, making ~10% of
	// NewOrders multi-warehouse — the paper's ~10% figure).
	RemoteItemPct float64

	// UserAbortPct is the probability a NewOrder rolls back on an
	// invalid item (spec: 1%).
	UserAbortPct float64

	// InsertsPerWorker sizes the insert segments of HISTORY, ORDERS,
	// NEW_ORDER and ORDER_LINE (ORDER_LINE gets 15x, room for the
	// largest order on every one). Raise it for long measurement
	// windows: reserved slots are paged in as inserts reach them, so the
	// headroom — ORDER_LINE's 15x included, of which an average order
	// fills 10 — costs nothing until it is used.
	InsertsPerWorker int

	// Mix selects the transaction mix. MixPaper (the default) is the
	// paper's two-transaction Payment/NewOrder mix drawn per PaymentPct;
	// MixFull adds Delivery, OrderStatus and StockLevel at the
	// specification's 45/43/4/4/4 weights, grows DISTRICT by a
	// delivery-cursor column and builds three ordered indexes for the
	// range scans those transactions perform. Two of them, NEW_ORDER_ORD
	// and ORDER_LINE_ORD, replace NEW_ORDER_PK and ORDER_LINE_PK as the
	// only index of their table; ORDERS_CUST is a secondary index beside
	// ORDERS_PK. MixPaper builds a byte-identical database to the
	// pre-full-mix engine.
	Mix string
}

// Mix values for Config.Mix.
const (
	MixPaper = "paper"
	MixFull  = "full"
)

// Mixes lists the valid Config.Mix values.
func Mixes() []string { return []string{MixPaper, MixFull} }

// DefaultConfig returns spec ratios at laptop scale.
func DefaultConfig(warehouses int) Config {
	return Config{
		Warehouses:            warehouses,
		DistrictsPerWarehouse: 10,
		CustomersPerDistrict:  300,
		Items:                 1000,
		PaymentPct:            0.5,
		RemotePaymentPct:      0.15,
		RemoteItemPct:         0.01,
		UserAbortPct:          0.01,
		InsertsPerWorker:      4096,
		Mix:                   MixPaper,
	}
}

// Workload is a populated TPC-C database plus per-worker generators.
type Workload struct {
	cfg Config
	db  *core.DB

	warehouse, district, customer *storage.Table
	history, neworder, orders     *storage.Table
	orderline, item, stock        *storage.Table

	idxWarehouse, idxDistrict, idxCustomer *index.Hash
	idxItem, idxStock, idxOrders           *index.Hash
	idxHistory                             *index.Hash

	// NEW_ORDER and ORDER_LINE have one index each, the one their inserts
	// are published into: a hash PK under MixPaper, and under MixFull the
	// ordered index on the same key (ordNewOrder, ordLines).
	idxNewOrder, idxOrderLine index.Index

	// Full-mix state: the spec's three extra transactions range-scan
	// these ordered indexes (nil under MixPaper).
	full          bool
	ordNewOrder   *index.Ordered // NEW_ORDER by orderKey: Delivery's oldest-undelivered probe
	ordCustOrders *index.Ordered // ORDERS by (wid, did, cid, oid): OrderStatus's last-order scan
	ordLines      *index.Ordered // ORDER_LINE by orderLineKey: Delivery's per-order and StockLevel's recent-lines scans

	hseq []uint64 // per-worker history key counter

	// The transaction mix: Payment and NewOrder drawn per PaymentPct, or
	// the specification's five transactions (core.Mix implements Next,
	// TxnTypes and TxnTypeOf).
	*core.Mix
}

// Build creates, populates and indexes the TPC-C database on db.
func Build(db *core.DB, cfg Config) *Workload {
	if cfg.Warehouses <= 0 {
		panic("tpcc: need at least one warehouse")
	}
	switch cfg.Mix {
	case "", MixPaper:
	case MixFull:
	default:
		panic("tpcc: unknown mix " + cfg.Mix)
	}
	n := db.RT.NumProcs()
	w := &Workload{cfg: cfg, db: db, full: cfg.Mix == MixFull}

	W := cfg.Warehouses
	D := W * cfg.DistrictsPerWarehouse
	C := D * cfg.CustomersPerDistrict
	S := W * cfg.Items
	ins := cfg.InsertsPerWorker

	w.warehouse = db.Catalog.Add(warehouseSchema(), W, W, n)
	dsc := districtSchema()
	if w.full {
		dsc = districtSchemaFull()
	}
	w.district = db.Catalog.Add(dsc, D, D, n)
	w.customer = db.Catalog.Add(customerSchema(), C, C, n)
	w.item = db.Catalog.Add(itemSchema(), cfg.Items, cfg.Items, n)
	w.stock = db.Catalog.Add(stockSchema(), S, S, n)
	w.history = db.Catalog.Add(historySchema(), n*ins, 0, n)
	w.orders = db.Catalog.Add(ordersSchema(), n*ins, 0, n)
	w.neworder = db.Catalog.Add(newOrderSchema(), n*ins, 0, n)
	w.orderline = db.Catalog.Add(orderLineSchema(), n*ins*15, 0, n)

	w.idxWarehouse = db.AddIndex("WAREHOUSE_PK", w.warehouse, W)
	w.idxDistrict = db.AddIndex("DISTRICT_PK", w.district, D)
	w.idxCustomer = db.AddIndex("CUSTOMER_PK", w.customer, C)
	w.idxItem = db.AddIndex("ITEM_PK", w.item, cfg.Items)
	w.idxStock = db.AddIndex("STOCK_PK", w.stock, S)
	w.idxHistory = db.AddIndex("HISTORY_PK", w.history, n*ins)
	w.idxOrders = db.AddIndex("ORDERS_PK", w.orders, n*ins)

	// Ordered indexes exist only under the full mix — the paper mix's
	// build stays byte-identical to the two-transaction engine.
	if w.full {
		w.ordNewOrder = db.AddOrderedIndex("NEW_ORDER_ORD", w.neworder)
		w.ordCustOrders = db.AddOrderedIndex("ORDERS_CUST", w.orders)
		w.ordLines = db.AddOrderedIndex("ORDER_LINE_ORD", w.orderline)
		w.idxNewOrder, w.idxOrderLine = w.ordNewOrder, w.ordLines
	} else {
		w.idxNewOrder = db.AddIndex("NEW_ORDER_PK", w.neworder, n*ins)
		w.idxOrderLine = db.AddIndex("ORDER_LINE_PK", w.orderline, n*ins*15)
	}

	w.populate()

	w.hseq = make([]uint64, n)
	mix, err := core.NewMix(n, w.specs()...)
	if err != nil {
		panic("tpcc: " + err.Error())
	}
	w.Mix = mix
	return w
}

// Key helpers: warehouse ids are 1-based as in the specification.

func warehouseKey(wid uint64) uint64 { return wid }

func districtKey(wid, did uint64) uint64 { return index.CompositeKey(wid, did, 0, 0) }

func customerKey(wid, did, cid uint64) uint64 { return index.CompositeKey(wid, did, cid, 0) }

func itemKey(iid uint64) uint64 { return iid }

func stockKey(wid, iid uint64) uint64 { return index.CompositeKey(wid, 0, iid, 0) }

func orderKey(wid, did, oid uint64) uint64 { return index.CompositeKey(wid, did, oid, 0) }

func orderLineKey(wid, did, oid, ol uint64) uint64 { return index.CompositeKey(wid, did, oid, ol) }

// custOrderKey orders a customer's orders by oid within (wid, did, cid) —
// the ORDERS_CUST ordered-index key OrderStatus range-scans.
func custOrderKey(wid, did, cid, oid uint64) uint64 {
	return index.CompositeKey(wid, did, cid, oid)
}

func historyKey(worker int, seq uint64) uint64 {
	return index.CompositeKey(uint64(worker)+1, 0, 0, 0) | seq
}

// populate loads the initial database per the specification's cardinality
// rules (scaled), single-threaded: each table's rows, then its index in one
// LoadAll, slot s under the key of the row written at s.
func (w *Workload) populate() {
	cfg := &w.cfg
	rng := rand.New(rand.NewSource(0x79CC))

	slot := 0
	for wid := 1; wid <= cfg.Warehouses; wid++ {
		row := w.warehouse.LoadRow(slot)
		sc := w.warehouse.Schema
		sc.PutU64(row, WID, uint64(wid))
		sc.PutI64(row, WTax, int64(rng.Intn(2001))) // 0-20.00% in basis points
		sc.PutI64(row, WYTD, 30000000)              // $300,000.00 in cents
		slot++
	}
	w.idxWarehouse.LoadAll(slot, func(s int) uint64 { return warehouseKey(uint64(s) + 1) })

	slot = 0
	for wid := 1; wid <= cfg.Warehouses; wid++ {
		for did := 1; did <= cfg.DistrictsPerWarehouse; did++ {
			row := w.district.LoadRow(slot)
			sc := w.district.Schema
			sc.PutU64(row, DID, uint64(did))
			sc.PutU64(row, DWID, uint64(wid))
			sc.PutI64(row, DTax, int64(rng.Intn(2001)))
			sc.PutI64(row, DYTD, 3000000) // $30,000.00
			sc.PutU64(row, DNextOID, 1)   // no pre-loaded orders
			slot++
		}
	}
	dpw := cfg.DistrictsPerWarehouse
	w.idxDistrict.LoadAll(slot, func(s int) uint64 { return districtKey(uint64(s/dpw)+1, uint64(s%dpw)+1) })

	slot = 0
	for wid := 1; wid <= cfg.Warehouses; wid++ {
		for did := 1; did <= cfg.DistrictsPerWarehouse; did++ {
			for cid := 1; cid <= cfg.CustomersPerDistrict; cid++ {
				row := w.customer.LoadRow(slot)
				sc := w.customer.Schema
				sc.PutU64(row, CID, uint64(cid))
				sc.PutU64(row, CDID, uint64(did))
				sc.PutU64(row, CWID, uint64(wid))
				sc.PutI64(row, CDiscount, int64(rng.Intn(5001))) // 0-50.00%
				sc.PutI64(row, CCreditLim, 5000000)              // $50,000.00
				sc.PutI64(row, CBalance, -1000)                  // -$10.00
				sc.PutI64(row, CYTDPayment, 1000)
				sc.PutU64(row, CPaymentCnt, 1)
				if rng.Intn(10) == 0 {
					sc.PutU64(row, CCredit, 1) // BC: 10%
				}
				slot++
			}
		}
	}
	cpd := cfg.CustomersPerDistrict
	w.idxCustomer.LoadAll(slot, func(s int) uint64 {
		d := s / cpd
		return customerKey(uint64(d/dpw)+1, uint64(d%dpw)+1, uint64(s%cpd)+1)
	})

	for iid := 1; iid <= cfg.Items; iid++ {
		row := w.item.LoadRow(iid - 1)
		sc := w.item.Schema
		sc.PutU64(row, IID, uint64(iid))
		sc.PutU64(row, IIMID, uint64(rng.Intn(10000)+1))
		sc.PutI64(row, IPrice, int64(rng.Intn(9901)+100)) // $1.00-$100.00
	}
	w.idxItem.LoadAll(cfg.Items, func(s int) uint64 { return itemKey(uint64(s) + 1) })

	slot = 0
	for wid := 1; wid <= cfg.Warehouses; wid++ {
		for iid := 1; iid <= cfg.Items; iid++ {
			row := w.stock.LoadRow(slot)
			sc := w.stock.Schema
			sc.PutU64(row, SIID, uint64(iid))
			sc.PutU64(row, SWID, uint64(wid))
			sc.PutI64(row, SQuantity, int64(rng.Intn(91)+10)) // 10-100
			slot++
		}
	}
	w.idxStock.LoadAll(slot, func(s int) uint64 { return stockKey(uint64(s/cfg.Items)+1, uint64(s%cfg.Items)+1) })
}

// homeWarehouse binds worker p to a warehouse, round-robin (paper §5.6:
// with fewer warehouses than cores, workers share warehouses).
func (w *Workload) homeWarehouse(p rt.Proc) uint64 {
	return uint64(p.ID()%w.cfg.Warehouses) + 1
}

// partitionOf maps a warehouse to an H-STORE partition ("each partition
// consists of all the data for a single warehouse", §5.6; with more
// warehouses than partitions, warehouses fold onto partitions).
func (w *Workload) partitionOf(wid uint64) int {
	return int((wid - 1)) % w.db.NParts
}

// specs lists the transactions of the configured mix with their weights,
// in TxnTypes order. The paper's mix (§3.3) is Payment at PaymentPct and
// NewOrder at the rest; the full mix is the specification's five:
// Payment 43%, NewOrder 45%, OrderStatus 4%, Delivery 4%, StockLevel 4%
// (§5.2.3 minimums, with NewOrder absorbing the remainder).
func (w *Workload) specs() []core.TxnSpec {
	payment := func(int) core.Txn { return &paymentTxn{wl: w} }
	newOrder := func(int) core.Txn { return &newOrderTxn{wl: w, items: make([]olInput, 0, 15)} }
	if !w.full {
		return []core.TxnSpec{
			{Name: "Payment", Weight: w.cfg.PaymentPct, New: payment},
			{Name: "NewOrder", Weight: 1 - w.cfg.PaymentPct, New: newOrder},
		}
	}
	return []core.TxnSpec{
		{Name: "Payment", Weight: 43, New: payment},
		{Name: "NewOrder", Weight: 45, New: newOrder},
		{Name: "OrderStatus", Weight: 4, New: func(int) core.Txn { return &orderStatusTxn{wl: w} }},
		{Name: "Delivery", Weight: 4, New: func(int) core.Txn { return &deliveryTxn{wl: w} }},
		{Name: "StockLevel", Weight: 4, New: func(int) core.Txn { return &stockLevelTxn{wl: w} }},
	}
}
