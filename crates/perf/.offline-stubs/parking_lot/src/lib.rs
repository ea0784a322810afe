//! Offline stand-in for `parking_lot`: the `Mutex` subset `trace::recorder`
//! uses, over `std::sync::Mutex` (poisoning ignored, as parking_lot has none).

use std::sync::{Mutex as StdMutex, MutexGuard, PoisonError};

#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}
