//! Offline stand-in for the `crossbeam` crate.
//!
//! The workspace uses exactly one piece of crossbeam: `thread::scope`
//! with `Scope::spawn`, in `lucid_core::pool`. It has a stable std
//! equivalent today (`std::thread::scope`), so this shim adapts the
//! crossbeam call shape onto std.

/// Scoped threads (`crossbeam::thread`), backed by [`std::thread::scope`].
pub mod thread {
    use std::any::Any;

    /// Handle passed to scoped closures; allows nested spawns.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Clone for Scope<'scope, 'env> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<'scope, 'env> Copy for Scope<'scope, 'env> {}

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope handle
        /// (crossbeam's signature), enabling nested spawns.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let me = *self;
            self.inner.spawn(move || f(&me))
        }
    }

    /// Runs `f` with a scope handle; all spawned threads are joined before
    /// this returns. Panics in children propagate on join (std semantics),
    /// so the `Err` arm of the returned result is never populated — kept
    /// for crossbeam signature compatibility.
    ///
    /// # Errors
    ///
    /// Never returns `Err` (std scope re-raises child panics instead).
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_threads_borrow_and_join() {
        let inputs: Vec<usize> = (0..32).collect();
        let sums = super::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .chunks(8)
                .map(|chunk| scope.spawn(move |_| chunk.iter().map(|x| x * 2).sum::<usize>()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect::<Vec<_>>()
        })
        .expect("no panics");
        assert_eq!(sums.iter().sum::<usize>(), inputs.iter().map(|x| x * 2).sum());
    }
}
