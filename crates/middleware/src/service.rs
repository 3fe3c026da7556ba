//! One-to-one request/response services, the ROS `service` analogue.

use std::any::{Any, TypeId};

use crate::error::MiddlewareError;
use crate::message::Message;
use crate::topic::Bus;

type ErasedHandler = Box<dyn FnMut(Box<dyn Any>) -> Box<dyn Any> + Send>;

pub(crate) struct ServiceEntry {
    request_type: TypeId,
    response_type: TypeId,
    handler: ErasedHandler,
}

impl Bus {
    /// Registers a service handler under `name`, replacing any previous
    /// server for that name (as a restarted ROS node would).
    pub fn advertise_service<Req, Resp, F>(&self, name: &str, mut handler: F)
    where
        Req: Message,
        Resp: Message,
        F: FnMut(Req) -> Resp + Send + 'static,
    {
        let erased: ErasedHandler = Box::new(move |request: Box<dyn Any>| {
            let request = request.downcast::<Req>().expect("request type validated by caller");
            Box::new(handler(*request)) as Box<dyn Any>
        });
        self.services().lock().insert(
            name.to_owned(),
            ServiceEntry {
                request_type: TypeId::of::<Req>(),
                response_type: TypeId::of::<Resp>(),
                handler: erased,
            },
        );
    }

    /// Calls the service `name` synchronously.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::NoSuchService`] when no server is
    /// registered and [`MiddlewareError::ServiceTypeMismatch`] when the
    /// request/response types differ from the server's.
    pub fn call_service<Req: Message, Resp: Message>(
        &self,
        name: &str,
        request: Req,
    ) -> Result<Resp, MiddlewareError> {
        let mut services = self.services().lock();
        let entry = services
            .get_mut(name)
            .ok_or_else(|| MiddlewareError::NoSuchService { service: name.to_owned() })?;
        if entry.request_type != TypeId::of::<Req>() || entry.response_type != TypeId::of::<Resp>()
        {
            return Err(MiddlewareError::ServiceTypeMismatch { service: name.to_owned() });
        }
        let response = (entry.handler)(Box::new(request));
        let response = response.downcast::<Resp>().expect("response type validated above");
        Ok(*response)
    }

    /// Removes the server registered for `name`, if any, so later calls
    /// fail with [`MiddlewareError::NoSuchService`] — the analogue of a
    /// node shutting down and unregistering from the master.  Returns
    /// `true` when a server was removed.
    pub fn remove_service(&self, name: &str) -> bool {
        self.services().lock().remove(name).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_roundtrip() {
        let bus = Bus::new();
        bus.advertise_service::<u32, u32, _>("double", |x| x * 2);
        let result: u32 = bus.call_service("double", 21u32).unwrap();
        assert_eq!(result, 42);
    }

    #[test]
    fn missing_service_is_an_error() {
        let bus = Bus::new();
        let err = bus.call_service::<u32, u32>("absent", 1).unwrap_err();
        assert_eq!(err, MiddlewareError::NoSuchService { service: "absent".into() });
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let bus = Bus::new();
        bus.advertise_service::<u32, u32, _>("id", |x| x);
        let err = bus.call_service::<f64, u32>("id", 1.0).unwrap_err();
        assert_eq!(err, MiddlewareError::ServiceTypeMismatch { service: "id".into() });
    }

    #[test]
    fn removed_services_stop_answering() {
        let bus = Bus::new();
        bus.advertise_service::<u32, u32, _>("ephemeral", |x| x);
        assert!(bus.remove_service("ephemeral"));
        assert!(!bus.remove_service("ephemeral"));
        let err = bus.call_service::<u32, u32>("ephemeral", 1).unwrap_err();
        assert_eq!(err, MiddlewareError::NoSuchService { service: "ephemeral".into() });
    }

    #[test]
    fn readvertising_replaces_handler() {
        let bus = Bus::new();
        bus.advertise_service::<u32, u32, _>("f", |x| x + 1);
        bus.advertise_service::<u32, u32, _>("f", |x| x + 100);
        assert_eq!(bus.call_service::<u32, u32>("f", 1).unwrap(), 101);
    }
}
