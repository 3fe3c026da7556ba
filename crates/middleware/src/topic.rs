//! The typed publish/subscribe bus: topics, publishers and subscribers.

use std::any::{Any, TypeId};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::MiddlewareError;
use crate::message::Message;

/// Queue depth of every subscriber, mirroring a typical ROS `queue_size`:
/// when a queue is full its oldest message is dropped, so a subscriber that
/// never drains stays bounded.
pub const QUEUE_CAPACITY: usize = 1024;

struct SubscriberQueue<T> {
    queue: VecDeque<T>,
    latest: Option<T>,
    dropped: u64,
}

impl<T> Default for SubscriberQueue<T> {
    fn default() -> Self {
        Self { queue: VecDeque::new(), latest: None, dropped: 0 }
    }
}

/// Every subscriber queue of one topic; stored type-erased in [`TopicEntry`].
type TopicChannel<T> = Vec<Arc<Mutex<SubscriberQueue<T>>>>;

struct TopicEntry {
    type_id: TypeId,
    channel: Box<dyn Any + Send>,
}

#[derive(Default)]
struct BusInner {
    topics: Mutex<HashMap<String, TopicEntry>>,
    services: Mutex<HashMap<String, crate::service::ServiceEntry>>,
}

/// The central message bus: a deterministic, in-process stand-in for the ROS
/// topic graph.
///
/// A `Bus` is cheap to clone; clones share the same topic and service
/// tables.
///
/// # Examples
///
/// ```
/// use mavfi_middleware::Bus;
///
/// let bus = Bus::new();
/// let tx = bus.advertise::<Vec<f64>>("point_cloud");
/// let rx = bus.subscribe::<Vec<f64>>("point_cloud");
/// tx.publish(vec![1.0, 2.0, 3.0]);
/// assert_eq!(rx.try_recv(), Some(vec![1.0, 2.0, 3.0]));
/// ```
#[derive(Clone, Default)]
pub struct Bus {
    inner: Arc<BusInner>,
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bus")
            .field("topics", &self.inner.topics.lock().len())
            .field("services", &self.inner.services.lock().len())
            .finish()
    }
}

impl Bus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a publisher for `topic`, registering the topic on first use.
    ///
    /// # Panics
    ///
    /// Panics if `topic` already exists with a different message type; use
    /// [`Bus::try_advertise`] to handle that case gracefully.
    pub fn advertise<T: Message>(&self, topic: &str) -> Publisher<T> {
        self.try_advertise(topic).expect("topic advertised with mismatched message type")
    }

    /// Fallible variant of [`Bus::advertise`].
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::TopicTypeMismatch`] if the topic exists
    /// with a different message type.
    pub fn try_advertise<T: Message>(&self, topic: &str) -> Result<Publisher<T>, MiddlewareError> {
        self.ensure_topic::<T>(topic)?;
        Ok(Publisher { bus: self.clone(), topic: topic.to_owned(), _marker: PhantomData })
    }

    /// Creates a subscriber on `topic` with a queue of
    /// [`QUEUE_CAPACITY`] messages.
    ///
    /// # Panics
    ///
    /// Panics if `topic` already exists with a different message type; use
    /// [`Bus::try_subscribe`] to handle that case gracefully.
    pub fn subscribe<T: Message>(&self, topic: &str) -> Subscriber<T> {
        self.try_subscribe(topic).expect("topic subscribed with mismatched message type")
    }

    /// Fallible variant of [`Bus::subscribe`].
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::TopicTypeMismatch`] if the topic exists
    /// with a different message type.
    pub fn try_subscribe<T: Message>(&self, topic: &str) -> Result<Subscriber<T>, MiddlewareError> {
        self.ensure_topic::<T>(topic)?;
        let queue = Arc::new(Mutex::new(SubscriberQueue::default()));
        let mut topics = self.inner.topics.lock();
        let entry = topics.get_mut(topic).expect("topic just ensured");
        let channel =
            entry.channel.downcast_mut::<TopicChannel<T>>().expect("type id already validated");
        channel.push(Arc::clone(&queue));
        Ok(Subscriber { queue, topic: topic.to_owned() })
    }

    pub(crate) fn services(&self) -> &Mutex<HashMap<String, crate::service::ServiceEntry>> {
        &self.inner.services
    }

    fn ensure_topic<T: Message>(&self, topic: &str) -> Result<(), MiddlewareError> {
        let mut topics = self.inner.topics.lock();
        match topics.get(topic) {
            Some(entry) if entry.type_id == TypeId::of::<T>() => Ok(()),
            Some(_) => Err(MiddlewareError::TopicTypeMismatch { topic: topic.to_owned() }),
            None => {
                topics.insert(
                    topic.to_owned(),
                    TopicEntry {
                        type_id: TypeId::of::<T>(),
                        channel: Box::new(TopicChannel::<T>::new()),
                    },
                );
                Ok(())
            }
        }
    }

    fn publish_inner<T: Message>(&self, topic: &str, message: T) -> usize {
        let mut topics = self.inner.topics.lock();
        let entry = match topics.get_mut(topic) {
            Some(entry) if entry.type_id == TypeId::of::<T>() => entry,
            _ => return 0,
        };
        let channel =
            entry.channel.downcast_mut::<TopicChannel<T>>().expect("type id already validated");
        for subscriber in channel.iter() {
            let mut queue = subscriber.lock();
            if queue.queue.len() >= QUEUE_CAPACITY {
                queue.queue.pop_front();
                queue.dropped += 1;
            }
            queue.queue.push_back(message.clone());
            queue.latest = Some(message.clone());
        }
        channel.len()
    }
}

/// Typed handle for publishing messages on one topic.
///
/// Created by [`Bus::advertise`].  Cloning is cheap and publishes to the same
/// topic.
pub struct Publisher<T: Message> {
    bus: Bus,
    topic: String,
    _marker: PhantomData<fn(T)>,
}

impl<T: Message> Clone for Publisher<T> {
    fn clone(&self) -> Self {
        Self { bus: self.bus.clone(), topic: self.topic.clone(), _marker: PhantomData }
    }
}

impl<T: Message> fmt::Debug for Publisher<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Publisher")
            .field("topic", &self.topic)
            .field("message_type", &std::any::type_name::<T>())
            .finish()
    }
}

impl<T: Message> Publisher<T> {
    /// Publishes one message, returning the number of subscribers it was
    /// delivered to.
    pub fn publish(&self, message: T) -> usize {
        self.bus.publish_inner(&self.topic, message)
    }

    /// The topic this publisher writes to.
    pub fn topic(&self) -> &str {
        &self.topic
    }
}

/// Typed handle for receiving messages from one topic.
///
/// Created by [`Bus::subscribe`].  Each subscriber owns an independent
/// bounded queue; slow subscribers drop their oldest messages.
pub struct Subscriber<T: Message> {
    queue: Arc<Mutex<SubscriberQueue<T>>>,
    topic: String,
}

impl<T: Message> fmt::Debug for Subscriber<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscriber")
            .field("topic", &self.topic)
            .field("queued", &self.len())
            .finish()
    }
}

impl<T: Message> Subscriber<T> {
    /// Pops the oldest queued message, if any.
    pub fn try_recv(&self) -> Option<T> {
        self.queue.lock().queue.pop_front()
    }

    /// Drains every queued message in arrival order.
    pub fn drain(&self) -> Vec<T> {
        self.queue.lock().queue.drain(..).collect()
    }

    /// Returns a clone of the most recently delivered message without
    /// consuming the queue.  This mirrors latched "latest value" access that
    /// control loops use.
    pub fn latest(&self) -> Option<T> {
        self.queue.lock().latest.clone()
    }

    /// Number of currently queued messages.
    pub fn len(&self) -> usize {
        self.queue.lock().queue.len()
    }

    /// Returns `true` when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of messages dropped because the bounded queue was full.
    pub fn dropped(&self) -> u64 {
        self.queue.lock().dropped
    }

    /// The topic this subscriber reads from.
    pub fn topic(&self) -> &str {
        &self.topic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiple_subscribers_each_receive_a_copy() {
        let bus = Bus::new();
        let publisher = bus.advertise::<String>("chat");
        let first = bus.subscribe::<String>("chat");
        let second = bus.subscribe::<String>("chat");
        assert_eq!(publisher.publish("hello".to_owned()), 2);
        assert_eq!(first.try_recv().as_deref(), Some("hello"));
        assert_eq!(second.try_recv().as_deref(), Some("hello"));
    }

    #[test]
    fn type_mismatch_is_reported() {
        let bus = Bus::new();
        let _tx = bus.advertise::<u32>("count");
        let err = bus.try_subscribe::<f64>("count").unwrap_err();
        assert_eq!(err, MiddlewareError::TopicTypeMismatch { topic: "count".into() });
        let err = bus.try_advertise::<f64>("count").unwrap_err();
        assert_eq!(err, MiddlewareError::TopicTypeMismatch { topic: "count".into() });
    }

    #[test]
    fn bounded_queue_drops_oldest() {
        let bus = Bus::new();
        let publisher = bus.advertise::<usize>("burst");
        let subscriber = bus.subscribe::<usize>("burst");
        let overflow = 3;
        for value in 0..QUEUE_CAPACITY + overflow {
            publisher.publish(value);
        }
        assert_eq!(subscriber.len(), QUEUE_CAPACITY);
        assert_eq!(subscriber.dropped(), overflow as u64);
        let expected: Vec<usize> = (overflow..QUEUE_CAPACITY + overflow).collect();
        assert_eq!(subscriber.drain(), expected);
        assert_eq!(subscriber.latest(), Some(QUEUE_CAPACITY + overflow - 1));
    }

    #[test]
    fn latest_survives_drain() {
        let bus = Bus::new();
        let publisher = bus.advertise::<u32>("state");
        let subscriber = bus.subscribe::<u32>("state");
        publisher.publish(9);
        let _ = subscriber.drain();
        assert_eq!(subscriber.latest(), Some(9));
        assert!(subscriber.is_empty());
        assert_eq!(subscriber.dropped(), 0);
    }
}
