"""TPC-C contextclass schema (§6.1.2).

The paper's declarations::

    contextclass WareHouse {set<Stock> s; set<District> d;}
    contextclass District  {set<Customer> c; set<Order> o;}
    contextclass Customer  {History h; set<Order> os;}
    contextclass Order     {set<NewOrder> n; set<OrderLine> l;}

with two simplifications the paper itself makes or suggests:

* "warehouse and items form a single context" — Stock rows live inside
  the Warehouse context (a dict), they do not need independent
  elasticity;
* NewOrder/OrderLine/History rows are folded into their Order/Customer
  container contexts (§6.3: "one context plays the role of a container
  for several objects as long as these objects do not require an
  independent elasticity policy").

Ownership — the crux of the evaluation:

* **multi-ownership wiring** (``aeon``): an Order is owned by *both* its
  Customer and its District.  Consequently ``dom(Customer) = District``
  and every Customer-target event is sequenced exclusively at its
  District — the saturation §6.1.2 reports;
* **single-ownership wiring** (``aeon_so``/``eventwave``/Orleans
  variants): Orders belong to the Customer only, ``dom(Customer) =
  Customer``, and customer events run in parallel until the Warehouse
  context saturates.

Transaction entry points follow the paper's §6.1.2 narrative: Payment
enters the Warehouse and *asynchronously* continues in the District and
Customer ("once a payment transaction finishes its execution in a
Warehouse context, it calls a method in a District context
asynchronously, and releases the Warehouse"), which is what chain
release turns into pipeline parallelism.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ...core.context import ContextClass, ContextRef, Ref, RefSet, cost, readonly
from ...core.events import async_, compute, dispatch

__all__ = ["Warehouse", "District", "Customer", "Order", "TpccWork", "DEFAULT_WORK"]


class TpccWork:
    """CPU unit-work constants per transaction stage.

    TPC-C transactions are heavy relative to game ops (the paper's whole
    cluster peaks below 200 events/s); these constants set that scale.
    """

    #: Order-line validation/insert work at the Customer.
    customer_order = 18.0
    #: Stock decrement work at the Warehouse (kept short: chain release
    #: frees the Warehouse quickly — the §6.1.2 point).
    wh_stock = 1.2
    #: District's stock-summary note (the Warehouse's synchronous call
    #: into the District, which couples Warehouse hold time to District
    #: congestion).
    district_note = 0.4
    #: Payment work at the Warehouse before the asynchronous handoff.
    wh_payment = 1.0
    #: Payment work at the District before the asynchronous handoff.
    district_payment = 1.5
    #: Payment/history work at the Customer.
    customer_payment = 10.0
    #: Delivery work at the District (order lookup and carrier update).
    district_delivery = 6.0
    #: Per-order delivery work.
    order_delivery = 4.0
    #: Read-only status/stock-level probes.
    readonly_probe = 2.0


DEFAULT_WORK = TpccWork()


class Order(ContextClass):
    """One order: order lines and NewOrder marker folded in."""

    size_bytes = 8192

    def __init__(
        self, o_id: int, c_id: int, lines: Sequence[Tuple[int, int]], total: int
    ) -> None:
        self.o_id = o_id
        self.c_id = c_id
        self.lines = list(lines)
        self.total = total
        self.delivered = False
        self.carrier_id: Optional[int] = None

    @cost(4.0)
    def deliver(self, carrier_id: int) -> Tuple[int, int]:
        """Mark delivered; returns ``(total, c_id)`` for the credit."""
        self.delivered = True
        self.carrier_id = carrier_id
        return self.total, self.c_id

    @readonly
    @cost(1.0)
    def status(self) -> Dict[str, Any]:
        """Read-only order status row."""
        return {
            "o_id": self.o_id,
            "delivered": self.delivered,
            "carrier": self.carrier_id,
            "total": self.total,
            "lines": len(self.lines),
        }


class Customer(ContextClass):
    """A customer: balance, folded history, and its orders."""

    size_bytes = 16384

    orders = RefSet(Order)

    def __init__(self, c_id: int, d_id: int) -> None:
        self.c_id = c_id
        self.d_id = d_id
        self.balance = 0
        self.ytd_payment = 0
        self.payment_count = 0
        self.delivery_count = 0
        self.history: List[Tuple[float, int]] = []
        self.order_seq = 0
        self._order_refs: List[ContextRef] = []
        self._undelivered: List[ContextRef] = []

    def preload_order(self, order_ref: ContextRef) -> None:
        """Register an initial-load order (loader only, pre-run).

        TPC-C's initial database population creates orders for every
        customer; besides fidelity, this establishes the Customer/District
        sharing *before* any event runs, so dominators never flip under
        in-flight events (see DESIGN.md, "dynamic sharing rule").
        """
        self.order_seq += 1
        self._order_refs.append(order_ref)
        self._undelivered.append(order_ref)

    # ------------------------------------------------------------------
    # NewOrder (45% of the mix) — the multi- vs single-ownership pivot
    # ------------------------------------------------------------------
    def new_order(
        self,
        lines: Sequence[Tuple[int, int]],
        warehouse: ContextRef,
        district: Optional[ContextRef],
    ) -> Generator:
        """Place an order; stock is deducted by a dispatched sub-event.

        ``district`` is the co-owner ref in the multi-ownership wiring
        (None for single ownership).  The stock deduction executes as a
        follow-up event on the Warehouse after this event commits (the
        scaled-down TPC-C accepts orders unconditionally; see DESIGN.md).
        """
        yield compute(DEFAULT_WORK.customer_order)
        self.order_seq += 1
        total = sum(qty * 10 for _item, qty in lines)
        runtime = self._aeon_runtime
        owners = [self.ref] if district is None else [self.ref, district]
        order = runtime.create_context(
            Order,
            owners=owners,
            server=runtime.server_of(self.cid),
            name=f"order-{self.d_id}-{self.c_id}-{self.order_seq}",
            args=(self.order_seq, self.c_id, list(lines), total),
        )
        self._order_refs.append(order)
        self._undelivered.append(order)
        yield dispatch(warehouse.stock_deduct(self.d_id, list(lines)))
        return self.order_seq

    def add_order_direct(
        self,
        lines: Sequence[Tuple[int, int]],
        district: Optional[ContextRef],
    ) -> Generator:
        """Order insert without the stock dispatch (tree/unsafe callers)."""
        yield compute(DEFAULT_WORK.customer_order)
        self.order_seq += 1
        total = sum(qty * 10 for _item, qty in lines)
        runtime = self._aeon_runtime
        owners = [self.ref] if district is None else [self.ref, district]
        order = runtime.create_context(
            Order,
            owners=owners,
            server=runtime.server_of(self.cid),
            name=f"order-{self.d_id}-{self.c_id}-{self.order_seq}",
            args=(self.order_seq, self.c_id, list(lines), total),
        )
        self._order_refs.append(order)
        self._undelivered.append(order)
        return self.order_seq

    def unsafe_new_order(
        self,
        lines: Sequence[Tuple[int, int]],
        warehouse: ContextRef,
        district: ContextRef,
    ) -> Generator:
        """Orleans*: direct grain calls, no cross-grain atomicity.

        Calls only leaf grain turns (no grain that might synchronously
        call back) — real Orleans applications must structure calls this
        way or risk the non-reentrancy deadlock §2.1 warns about.
        """
        order_id = yield from self.add_order_direct(lines, None)
        yield warehouse.stock_deduct_unsafe(list(lines))
        yield district.note_stock([item for item, _qty in lines])
        return order_id

    def unsafe_payment(
        self, amount: int, warehouse: ContextRef, district: ContextRef
    ) -> Generator:
        """Orleans*: apply the payment with per-grain turns only."""
        yield from self.pay(amount)
        yield warehouse.pay_ytd(amount)
        yield district.pay_ytd(amount)
        return self.balance

    # ------------------------------------------------------------------
    # Payment tail (the end of the WH -> District -> Customer chain)
    # ------------------------------------------------------------------
    def pay(self, amount: int) -> Generator:
        """Apply a payment and append the folded History row."""
        yield compute(DEFAULT_WORK.customer_payment)
        self.balance -= amount
        self.ytd_payment += amount
        self.payment_count += 1
        self.history.append((self._aeon_runtime.sim.now, amount))
        return self.balance

    @cost(1.0)
    def credit(self, amount: int) -> int:
        """Delivery credit (called by the District in multi-ownership)."""
        self.balance += amount
        self.delivery_count += 1
        return self.balance

    def deliver_oldest(self, carrier_id: int) -> Generator:
        """Single ownership: the district delivers through the customer."""
        yield compute(1.0)
        while self._undelivered:
            order = self._undelivered.pop(0)
            total, _cid = yield order.deliver(carrier_id)
            self.balance += total
            self.delivery_count += 1
            return total
        return 0

    # ------------------------------------------------------------------
    # OrderStatus (read-only, 4%)
    # ------------------------------------------------------------------
    @readonly
    def order_status(self) -> Generator:
        """Status of the customer's most recent order."""
        yield compute(DEFAULT_WORK.readonly_probe)
        if not self._order_refs:
            return None
        status = yield self._order_refs[-1].status()
        return status


class District(ContextClass):
    """A district: the partitioning unit (one per server, as in Rococo)."""

    size_bytes = 32768

    customers = RefSet(Customer)
    orders = RefSet(Order)  # populated only in the multi-ownership wiring

    def __init__(self, d_id: int) -> None:
        self.d_id = d_id
        self.d_ytd = 0
        self.next_o_id = 1
        self.recent_items: List[int] = []
        self.delivered_upto = 0

    # ------------------------------------------------------------------
    # Payment middle stage (asynchronous continuation from the WH)
    # ------------------------------------------------------------------
    def accept_payment(self, customer: ContextRef, amount: int) -> Generator:
        """District leg of Payment; continues asynchronously downward."""
        yield compute(DEFAULT_WORK.district_payment)
        self.d_ytd += amount
        yield async_(customer.pay(amount))

    def accept_payment_sync(self, customer: ContextRef, amount: int) -> Generator:
        """Synchronous Payment leg (EventWave-style orchestration)."""
        yield compute(DEFAULT_WORK.district_payment)
        self.d_ytd += amount
        yield customer.pay(amount)

    @cost(0.5)
    def pay_ytd(self, amount: int) -> None:
        """Orleans*: bare district-ytd update (single grain turn)."""
        self.d_ytd += amount

    # ------------------------------------------------------------------
    # Stock summary note (the Warehouse's synchronous call)
    # ------------------------------------------------------------------
    @cost(0.8)
    def note_stock(self, item_ids: Sequence[int]) -> None:
        """Track recently ordered items (feeds StockLevel)."""
        self.recent_items.extend(item_ids)
        if len(self.recent_items) > 200:
            del self.recent_items[: len(self.recent_items) - 200]

    # ------------------------------------------------------------------
    # Delivery (4%)
    # ------------------------------------------------------------------
    def deliver(self, carrier_id: int, multi_ownership: bool) -> Generator:
        """Deliver the oldest undelivered order of this district."""
        yield compute(DEFAULT_WORK.district_delivery)
        if multi_ownership:
            orders = self.children_of_type("Order")
            while self.delivered_upto < len(orders):
                order = orders[self.delivered_upto]
                self.delivered_upto += 1
                total, c_id = yield order.deliver(carrier_id)
                customer = self._customer_ref(c_id)
                if customer is not None:
                    yield customer.credit(total)
                return total
            return 0
        customers = self.customers.refs()
        if not customers:
            return 0
        target = customers[carrier_id % len(customers)]
        total = yield target.deliver_oldest(carrier_id)
        return total

    def _customer_ref(self, c_id: int) -> Optional[ContextRef]:
        for customer in self.customers:
            instance = self._aeon_runtime.instances.get(customer.cid)
            if instance is not None and instance.c_id == c_id:
                return customer
        return None

    @readonly
    @cost(1.2)
    def recent_item_ids(self) -> List[int]:
        """The item ids of recently placed orders (read-only)."""
        return list(self.recent_items[-100:])


class Warehouse(ContextClass):
    """The warehouse: stock rows folded in, one per deployment."""

    size_bytes = 262144

    districts = RefSet(District)

    def __init__(self, w_id: int, n_items: int) -> None:
        self.w_id = w_id
        self.w_ytd = 0
        self.stock: Dict[int, int] = {item: 1000 for item in range(n_items)}

    # ------------------------------------------------------------------
    # Payment head (43%) — the chain-release showcase
    # ------------------------------------------------------------------
    def payment(
        self, district: ContextRef, customer: ContextRef, amount: int
    ) -> Generator:
        """Warehouse leg of Payment; hands off to the District (async)."""
        yield compute(DEFAULT_WORK.wh_payment)
        self.w_ytd += amount
        yield async_(district.accept_payment(customer, amount))

    # ------------------------------------------------------------------
    # Stock deduction (dispatched by NewOrder)
    # ------------------------------------------------------------------
    def stock_deduct(self, d_id: int, lines: Sequence[Tuple[int, int]]) -> Generator:
        """Decrement stock; refresh the district's stock summary.

        The synchronous ``note_stock`` call is what couples Warehouse
        hold time to District congestion: in the multi-ownership wiring
        the District is busy sequencing customer events, so the
        Warehouse waits longer — saturating earlier (Fig. 6a).
        """
        yield compute(DEFAULT_WORK.wh_stock)
        for item, qty in lines:
            remaining = self.stock.get(item, 0) - qty
            if remaining < 10:
                remaining += 91  # TPC-C's restock rule
            self.stock[item] = remaining
        district = self._district_ref(d_id)
        if district is not None:
            yield district.note_stock([item for item, _qty in lines])

    def _district_ref(self, d_id: int) -> Optional[ContextRef]:
        for district in self.districts:
            instance = self._aeon_runtime.instances.get(district.cid)
            if instance is not None and instance.d_id == d_id:
                return district
        return None

    @cost(0.5)
    def pay_ytd(self, amount: int) -> None:
        """Orleans*: bare warehouse-ytd update (single grain turn)."""
        self.w_ytd += amount

    def stock_deduct_unsafe(self, lines: Sequence[Tuple[int, int]]) -> Generator:
        """Orleans*: stock decrement as a leaf grain turn (no district
        call — synchronous fan-in from a busy grain would deadlock)."""
        yield compute(DEFAULT_WORK.wh_stock)
        for item, qty in lines:
            remaining = self.stock.get(item, 0) - qty
            if remaining < 10:
                remaining += 91
            self.stock[item] = remaining

    # ------------------------------------------------------------------
    # Tree orchestration (the Orleans lock variant, "a la EventWave")
    # ------------------------------------------------------------------
    def tree_new_order(
        self,
        district: ContextRef,
        customer: ContextRef,
        d_id: int,
        lines: Sequence[Tuple[int, int]],
    ) -> Generator:
        """NewOrder executed entirely under the Warehouse grain's turn."""
        yield compute(DEFAULT_WORK.wh_stock)
        for item, qty in lines:
            remaining = self.stock.get(item, 0) - qty
            if remaining < 10:
                remaining += 91
            self.stock[item] = remaining
        order_id = yield customer.add_order_direct(list(lines), None)
        yield district.note_stock([item for item, _qty in lines])
        return order_id

    def tree_payment(
        self, district: ContextRef, customer: ContextRef, amount: int
    ) -> Generator:
        """Payment executed entirely under the Warehouse grain's turn."""
        yield compute(DEFAULT_WORK.wh_payment)
        self.w_ytd += amount
        yield district.accept_payment_sync(customer, amount)

    def tree_delivery(self, district: ContextRef, carrier_id: int) -> Generator:
        """Delivery orchestrated from the Warehouse grain."""
        total = yield district.deliver(carrier_id, False)
        return total

    def tree_order_status(self, customer: ContextRef) -> Generator:
        """OrderStatus orchestrated from the Warehouse grain."""
        status = yield customer.order_status()
        return status

    # ------------------------------------------------------------------
    # StockLevel (read-only, 4%)
    # ------------------------------------------------------------------
    @readonly
    def stock_level(self, district: ContextRef, threshold: int) -> Generator:
        """Count recently ordered items whose stock is below threshold."""
        yield compute(DEFAULT_WORK.readonly_probe)
        recent = yield district.recent_item_ids()
        low = sum(1 for item in set(recent) if self.stock.get(item, 0) < threshold)
        return low

    @readonly
    @cost(0.5)
    def ytd(self) -> int:
        """Year-to-date takings (read-only)."""
        return self.w_ytd
