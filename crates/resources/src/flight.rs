//! A flight-booking service (the classic mobile-agent travel scenario),
//! with seat inventory and cancellation fees.

use mar_txn::{OpCtx, ResourceManager, TxStore, TxnError, TxnId};
use mar_wire::Value;
use serde::{Deserialize, Serialize};

use crate::util::{p_amount, p_str, peek_t, read_t, rejected, write_t};

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct FlightRec {
    price: i64,
    seats: i64,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct BookingRec {
    flight: String,
    passenger: String,
    paid: i64,
    cancelled: bool,
}

/// A flight-booking resource manager.
pub struct FlightRm {
    name: String,
    cancel_fee_permille: u64,
    store: TxStore,
}

impl FlightRm {
    /// Creates a booking service; cancellations retain
    /// `cancel_fee_permille`/1000 of the fare.
    pub fn new(name: impl Into<String>, cancel_fee_permille: u64) -> Self {
        FlightRm {
            name: name.into(),
            cancel_fee_permille,
            store: TxStore::new(),
        }
    }

    /// Seeds a flight before the world starts.
    pub fn with_flight(mut self, flight: &str, price: i64, seats: i64) -> Self {
        self.store.seed(
            format!("flight/{flight}"),
            mar_wire::to_bytes(&FlightRec { price, seats }).unwrap(),
        );
        self
    }

    /// Committed revenue (conservation checks).
    pub fn revenue(&self) -> i64 {
        peek_t(&self.store, "revenue").unwrap_or(0)
    }

    /// Committed free seats on a flight.
    pub fn seats_of(&self, flight: &str) -> Option<i64> {
        peek_t::<FlightRec>(&self.store, &format!("flight/{flight}")).map(|f| f.seats)
    }

    /// Number of committed, non-cancelled bookings.
    pub fn active_bookings(&self) -> usize {
        self.store
            .iter()
            .filter(|(k, _)| k.starts_with("booking/"))
            .filter_map(|(_, v)| mar_wire::from_slice::<BookingRec>(v).ok())
            .filter(|b| !b.cancelled)
            .count()
    }

    fn revenue_add(&mut self, txn: TxnId, delta: i64) -> Result<(), TxnError> {
        let cur: i64 = read_t(&mut self.store, txn, "revenue")?.unwrap_or(0);
        write_t(&mut self.store, txn, "revenue", &(cur + delta))
    }
}

impl ResourceManager for FlightRm {
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&mut self, ctx: OpCtx, op: &str, params: &Value) -> Result<Value, TxnError> {
        match op {
            "quote" => {
                let flight = p_str(op, params, "flight")?.to_owned();
                let rec: FlightRec = read_t(&mut self.store, ctx.txn, &format!("flight/{flight}"))?
                    .ok_or_else(|| rejected(&self.name, format!("no flight {flight:?}")))?;
                Ok(Value::map([
                    ("price", Value::from(rec.price)),
                    ("seats", Value::from(rec.seats)),
                ]))
            }
            "book" => {
                let flight = p_str(op, params, "flight")?.to_owned();
                let passenger = p_str(op, params, "passenger")?.to_owned();
                let paid = p_amount(op, params, "paid")?;
                let key = format!("flight/{flight}");
                let mut rec: FlightRec = read_t(&mut self.store, ctx.txn, &key)?
                    .ok_or_else(|| rejected(&self.name, format!("no flight {flight:?}")))?;
                if rec.seats == 0 {
                    return Err(rejected(&self.name, format!("{flight:?} is fully booked")));
                }
                if paid != rec.price {
                    return Err(rejected(
                        &self.name,
                        format!("fare is {}, paid {paid}", rec.price),
                    ));
                }
                rec.seats -= 1;
                write_t(&mut self.store, ctx.txn, &key, &rec)?;
                self.revenue_add(ctx.txn, paid)?;
                let booking_id = format!("{}-b{:08}", self.name, self.store.next_seq());
                write_t(
                    &mut self.store,
                    ctx.txn,
                    &format!("booking/{booking_id}"),
                    &BookingRec {
                        flight,
                        passenger,
                        paid,
                        cancelled: false,
                    },
                )?;
                Ok(Value::map([("booking_id", Value::from(booking_id))]))
            }
            // Compensation: cancel a booking, refunding the fare minus the
            // cancellation fee.
            "cancel" => {
                let booking_id = p_str(op, params, "booking_id")?.to_owned();
                let key = format!("booking/{booking_id}");
                let mut booking: BookingRec = read_t(&mut self.store, ctx.txn, &key)?
                    .ok_or_else(|| rejected(&self.name, format!("no booking {booking_id:?}")))?;
                if booking.cancelled {
                    return Err(rejected(
                        &self.name,
                        format!("booking {booking_id:?} already cancelled"),
                    ));
                }
                booking.cancelled = true;
                let fkey = format!("flight/{}", booking.flight);
                let mut rec: FlightRec = read_t(&mut self.store, ctx.txn, &fkey)?
                    .ok_or_else(|| rejected(&self.name, "flight vanished".to_owned()))?;
                rec.seats += 1;
                write_t(&mut self.store, ctx.txn, &fkey, &rec)?;
                let fee = booking.paid * self.cancel_fee_permille as i64 / 1000;
                let refund = booking.paid - fee;
                self.revenue_add(ctx.txn, -refund)?;
                write_t(&mut self.store, ctx.txn, &key, &booking)?;
                Ok(Value::map([
                    ("refund", Value::from(refund)),
                    ("fee", Value::from(fee)),
                ]))
            }
            other => Err(TxnError::BadRequest(format!(
                "{}: unknown operation {other:?}",
                self.name
            ))),
        }
    }

    fn store(&self) -> &TxStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut TxStore {
        &mut self.store
    }

    fn audit_money(&self) -> Value {
        Value::map([("USD", Value::from(self.revenue()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_simnet::{NodeId, SimTime};

    fn ctx(seq: u64) -> OpCtx {
        OpCtx {
            txn: TxnId::new(NodeId(0), seq),
            now: SimTime::ZERO,
        }
    }

    fn rm() -> FlightRm {
        FlightRm::new("air", 200).with_flight("LH100", 300, 2)
    }

    fn book(f: &mut FlightRm, seq: u64) -> Result<String, TxnError> {
        let r = f.invoke(
            ctx(seq),
            "book",
            &Value::map([
                ("flight", Value::from("LH100")),
                ("passenger", Value::from("alice")),
                ("paid", Value::from(300i64)),
            ]),
        )?;
        f.commit(ctx(seq).txn);
        Ok(r.get("booking_id").unwrap().as_str().unwrap().to_owned())
    }

    #[test]
    fn booking_takes_seat_and_revenue() {
        let mut f = rm();
        book(&mut f, 1).unwrap();
        assert_eq!(f.seats_of("LH100"), Some(1));
        assert_eq!(f.revenue(), 300);
        assert_eq!(f.active_bookings(), 1);
    }

    #[test]
    fn full_flight_rejected() {
        let mut f = rm();
        book(&mut f, 1).unwrap();
        book(&mut f, 2).unwrap();
        assert!(book(&mut f, 3).is_err());
    }

    #[test]
    fn cancel_refunds_minus_fee() {
        let mut f = rm();
        let id = book(&mut f, 1).unwrap();
        let r = f
            .invoke(
                ctx(2),
                "cancel",
                &Value::map([("booking_id", Value::from(id))]),
            )
            .unwrap();
        f.commit(ctx(2).txn);
        assert_eq!(r.get("refund").and_then(Value::as_i64), Some(240));
        assert_eq!(r.get("fee").and_then(Value::as_i64), Some(60));
        assert_eq!(f.seats_of("LH100"), Some(2));
        assert_eq!(f.revenue(), 60, "the fee stays with the airline");
        assert_eq!(f.active_bookings(), 0);
    }

    #[test]
    fn double_cancel_rejected() {
        let mut f = rm();
        let id = book(&mut f, 1).unwrap();
        f.invoke(
            ctx(2),
            "cancel",
            &Value::map([("booking_id", Value::from(id.clone()))]),
        )
        .unwrap();
        f.commit(ctx(2).txn);
        assert!(f
            .invoke(
                ctx(3),
                "cancel",
                &Value::map([("booking_id", Value::from(id))]),
            )
            .is_err());
    }

    #[test]
    fn wrong_fare_rejected() {
        let mut f = rm();
        assert!(f
            .invoke(
                ctx(1),
                "book",
                &Value::map([
                    ("flight", Value::from("LH100")),
                    ("passenger", Value::from("bob")),
                    ("paid", Value::from(100i64)),
                ]),
            )
            .is_err());
    }
}
