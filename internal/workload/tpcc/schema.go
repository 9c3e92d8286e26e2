// Package tpcc implements the TPC-C workload of §3.3/§5.6: the nine-table
// warehouse-centric order-processing schema, populated per the
// specification (at configurable scale), and the two transactions the
// paper models — Payment and NewOrder, 88% of the standard mix — as a
// "good faith" implementation including remote-warehouse accesses and
// NewOrder's 1% program-logic rollback. Worker threads issue transactions
// with no thinking time, and each worker is bound to a home warehouse
// round-robin (so 4 warehouses at 64 cores means 16 workers per warehouse,
// the Fig. 16 contention regime).
//
// Monetary values are stored as int64 cents; rates (tax, discount) as
// int64 basis points. Wide CHAR fields from the specification are carried
// as padding columns at reduced width so tuple sizes stay realistic
// without exhausting laptop memory (see DESIGN.md's scaling note).
package tpcc

import "abyss1000/internal/storage"

// Column indexes are exported per table as constants so transaction code
// reads like the specification. Each schema's first column is its primary
// id; ancestral foreign keys follow.

// WAREHOUSE columns.
const (
	WID = iota
	WTax
	WYTD
	WPad
)

// DISTRICT columns.
const (
	DID = iota
	DWID
	DTax
	DYTD
	DNextOID
	DPad
)

// DDelivOID is the delivery cursor DISTRICT carries under the full mix
// only (districtSchemaFull): the highest order id Delivery has delivered
// in this district. It replaces the spec's NEW_ORDER deletes — orders at
// most DDelivOID are delivered, orders above it are pending — so Delivery
// needs no delete inside a transaction, which the engine lacks. It
// aliases DPad's position in the paper-mix schema; never use it there.
const DDelivOID = DNextOID + 1

// CUSTOMER columns.
const (
	CID = iota
	CDID
	CWID
	CDiscount
	CCreditLim
	CBalance
	CYTDPayment
	CPaymentCnt
	CDeliveryCnt
	CCredit
	CPad
)

// HISTORY columns.
const (
	HCID = iota
	HCDID
	HCWID
	HDID
	HWID
	HDate
	HAmount
	HPad
)

// NEW-ORDER columns.
const (
	NOOID = iota
	NODID
	NOWID
)

// ORDERS columns.
const (
	OID = iota
	OCID
	ODID
	OWID
	OEntryD
	OCarrierID
	OOLCnt
	OAllLocal
)

// ORDER-LINE columns.
const (
	OLOID = iota
	OLDID
	OLWID
	OLNumber
	OLIID
	OLSupplyWID
	OLDeliveryD
	OLQuantity
	OLAmount
	OLPad
)

// ITEM columns.
const (
	IID = iota
	IIMID
	IPrice
	IPad
)

// STOCK columns.
const (
	SIID = iota
	SWID
	SQuantity
	SYTD
	SOrderCnt
	SRemoteCnt
	SPad
)

func u64(name string) storage.Col        { return storage.Col{Name: name, Width: 8} }
func pad(name string, n int) storage.Col { return storage.Col{Name: name, Width: n} }

func warehouseSchema() *storage.Schema {
	return storage.NewSchema("WAREHOUSE",
		u64("W_ID"), u64("W_TAX"), u64("W_YTD"), pad("W_PAD", 64))
}

func districtSchema() *storage.Schema {
	return storage.NewSchema("DISTRICT",
		u64("D_ID"), u64("D_W_ID"), u64("D_TAX"), u64("D_YTD"),
		u64("D_NEXT_O_ID"), pad("D_PAD", 64))
}

// districtSchemaFull is districtSchema plus the full-mix delivery
// cursor; the paper mix keeps the original schema so its row size (and
// the golden simulator signature) is untouched.
func districtSchemaFull() *storage.Schema {
	return storage.NewSchema("DISTRICT",
		u64("D_ID"), u64("D_W_ID"), u64("D_TAX"), u64("D_YTD"),
		u64("D_NEXT_O_ID"), u64("D_DELIV_O_ID"), pad("D_PAD", 64))
}

func customerSchema() *storage.Schema {
	return storage.NewSchema("CUSTOMER",
		u64("C_ID"), u64("C_D_ID"), u64("C_W_ID"), u64("C_DISCOUNT"),
		u64("C_CREDIT_LIM"), u64("C_BALANCE"), u64("C_YTD_PAYMENT"),
		u64("C_PAYMENT_CNT"), u64("C_DELIVERY_CNT"), u64("C_CREDIT"),
		pad("C_PAD", 120))
}

func historySchema() *storage.Schema {
	return storage.NewSchema("HISTORY",
		u64("H_C_ID"), u64("H_C_D_ID"), u64("H_C_W_ID"), u64("H_D_ID"),
		u64("H_W_ID"), u64("H_DATE"), u64("H_AMOUNT"), pad("H_PAD", 24))
}

func newOrderSchema() *storage.Schema {
	return storage.NewSchema("NEW_ORDER",
		u64("NO_O_ID"), u64("NO_D_ID"), u64("NO_W_ID"))
}

func ordersSchema() *storage.Schema {
	return storage.NewSchema("ORDERS",
		u64("O_ID"), u64("O_C_ID"), u64("O_D_ID"), u64("O_W_ID"),
		u64("O_ENTRY_D"), u64("O_CARRIER_ID"), u64("O_OL_CNT"), u64("O_ALL_LOCAL"))
}

func orderLineSchema() *storage.Schema {
	return storage.NewSchema("ORDER_LINE",
		u64("OL_O_ID"), u64("OL_D_ID"), u64("OL_W_ID"), u64("OL_NUMBER"),
		u64("OL_I_ID"), u64("OL_SUPPLY_W_ID"), u64("OL_DELIVERY_D"),
		u64("OL_QUANTITY"), u64("OL_AMOUNT"), pad("OL_PAD", 24))
}

func itemSchema() *storage.Schema {
	return storage.NewSchema("ITEM",
		u64("I_ID"), u64("I_IM_ID"), u64("I_PRICE"), pad("I_PAD", 48))
}

func stockSchema() *storage.Schema {
	return storage.NewSchema("STOCK",
		u64("S_I_ID"), u64("S_W_ID"), u64("S_QUANTITY"), u64("S_YTD"),
		u64("S_ORDER_CNT"), u64("S_REMOTE_CNT"), pad("S_PAD", 48))
}
