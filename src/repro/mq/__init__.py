"""Mini-JMS message broker and client API (ActiveMQ stand-in)."""
