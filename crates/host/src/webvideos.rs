//! **WebVideos** — the §II scenario's "online video service to host video
//! clips": Bob "organizes his … videos into collections". Built on the
//! same Host framework as the other applications, with video-specific
//! editing operations (clip, thumbnail, concat).

use std::sync::Arc;

use ucam_crypto::{base64url_decode, base64url_encode};
use ucam_policy::Action;
use ucam_webenv::Method::{Get, Post};
use ucam_webenv::{Request, Response, SimClock, Transport, WebApp};

use crate::shell::Caller::{Pep, Session};
use crate::shell::{AppShell, Call, Route};
use crate::video::Video;

/// The online video service application.
///
/// Videos live under ids `collections/<collection>/<video>`; bodies travel
/// base64url-encoded in the [`Video::to_bytes`] format.
///
/// The class column is who may call a route (DESIGN.md §17).
///
/// | Route | Class | Meaning |
/// |---|---|---|
/// | `POST /collections?name=c` | Session | create a collection |
/// | `POST /videos?collection=c&id=v` (body) | Session | upload |
/// | `GET /videos/<c>/<v>` | Pep | watch (read-enforced) |
/// | `GET /videos/<c>/<v>/thumbnail?w&h` | Pep | poster frame (read-enforced) |
/// | `POST /videos/<c>/<v>/clip?start&end` | Pep | trim (write-enforced) |
/// | `POST /videos/<c>/<v>/append?from=<c2>/<v2>` | Pep | concat (write-enforced, read-enforced on source) |
/// | `GET /collection/<c>` | Pep | list (list-enforced on `collection-meta/<c>`) |
pub struct WebVideos {
    shell: AppShell,
}

impl std::fmt::Debug for WebVideos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebVideos")
            .field("shell", &self.shell)
            .finish()
    }
}

impl WebVideos {
    /// The video service's own routes, served after the shell's.
    const ROUTES: &'static [Route<Self>] = &[
        (Some(Post), "/collections", Session, Self::create_collection),
        (Some(Post), "/videos", Session, Self::upload),
        (None, "/videos/", Pep, Self::video_route),
        (Some(Get), "/collection/", Pep, Self::list_collection),
    ];

    /// Creates the video service at `authority`.
    #[must_use]
    pub fn new(authority: &str, clock: SimClock) -> Arc<Self> {
        Arc::new(WebVideos {
            shell: AppShell::new(authority, clock),
        })
    }

    /// Access to the shared shell.
    #[must_use]
    pub fn shell(&self) -> &AppShell {
        &self.shell
    }

    fn create_collection(&self, c: Call<'_>) -> Response {
        let Some(name) = c.req.param("name") else {
            return Response::bad_request("name required");
        };
        let id = format!("collection-meta/{name}");
        self.shell.create(&c, id, "collection", Vec::new())
    }

    fn upload(&self, c: Call<'_>) -> Response {
        let (Some(collection), Some(video_id)) = (c.req.param("collection"), c.req.param("id"))
        else {
            return Response::bad_request("collection and id required");
        };
        let Ok(bytes) = base64url_decode(&c.req.body) else {
            return Response::bad_request("body must be base64url video data");
        };
        if let Err(e) = Video::from_bytes(&bytes) {
            return Response::bad_request(&format!("body is not a valid video: {e}"));
        }
        let id = format!("collections/{collection}/{video_id}");
        self.shell.create(&c, id, "video", bytes)
    }

    fn video_route(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let rest = req.url.path().trim_start_matches("/videos/");
        let segments: Vec<&str> = rest.split('/').filter(|s| !s.is_empty()).collect();
        let (collection, video_id, op) = match segments.as_slice() {
            [c, v] => (*c, *v, None),
            [c, v, op] => (*c, *v, Some(*op)),
            _ => return Response::bad_request("expected /videos/<collection>/<video>[/<op>]"),
        };
        let id = format!("collections/{collection}/{video_id}");
        let action = match op {
            None | Some("thumbnail") => Action::Read,
            Some(_) => Action::Write,
        };
        if let Err(resp) = self.shell.enforce_web(&c, &id, &action) {
            return resp;
        }
        let Some(resource) = self.shell.core.resource(&id) else {
            return Response::not_found(&id);
        };
        let video = match Video::from_bytes(&resource.data) {
            Ok(v) => v,
            Err(e) => {
                return Response::bad_request(&format!("stored resource is not a video: {e}"))
            }
        };
        match op {
            None => Response::ok().with_body(base64url_encode(&resource.data)),
            Some("thumbnail") => {
                let dims = ["w", "h"].map(|k| req.param(k).and_then(|v| v.parse::<u32>().ok()));
                let [Some(w), Some(h)] = dims else {
                    return Response::bad_request("thumbnail needs numeric w, h");
                };
                match video.thumbnail(w, h) {
                    Ok(image) => Response::ok().with_body(base64url_encode(&image.to_bytes())),
                    Err(e) => Response::bad_request(&e.to_string()),
                }
            }
            Some("clip") => {
                let range =
                    ["start", "end"].map(|k| req.param(k).and_then(|v| v.parse::<usize>().ok()));
                let [Some(start), Some(end)] = range else {
                    return Response::bad_request("clip needs numeric start, end");
                };
                match video.clip(start, end) {
                    Ok(clipped) => match self.shell.core.update_resource(&id, clipped.to_bytes()) {
                        Ok(()) => Response::ok()
                            .with_body(format!("clipped to {} frames", clipped.frame_count())),
                        Err(e) => Response::not_found(&e.to_string()),
                    },
                    Err(e) => Response::bad_request(&e.to_string()),
                }
            }
            Some("append") => {
                let Some(from) = req.param("from") else {
                    return Response::bad_request("append needs from=<collection>/<video>");
                };
                let source_id = format!("collections/{from}");
                // The source is enforced too: appending republishes it.
                if let Err(resp) = self.shell.enforce_web(&c, &source_id, &Action::Read) {
                    return resp;
                }
                let Some(source) = self.shell.core.resource(&source_id) else {
                    return Response::not_found(&source_id);
                };
                let other = match Video::from_bytes(&source.data) {
                    Ok(v) => v,
                    Err(e) => return Response::bad_request(&e.to_string()),
                };
                match video.concat(&other) {
                    Ok(joined) => match self.shell.core.update_resource(&id, joined.to_bytes()) {
                        Ok(()) => {
                            Response::ok().with_body(format!("now {} frames", joined.frame_count()))
                        }
                        Err(e) => Response::not_found(&e.to_string()),
                    },
                    Err(e) => Response::bad_request(&e.to_string()),
                }
            }
            Some(other) => Response::bad_request(&format!("unknown video operation: {other}")),
        }
    }

    fn list_collection(&self, c: Call<'_>) -> Response {
        let collection = c.req.url.path().trim_start_matches("/collection/");
        let meta_id = format!("collection-meta/{collection}");
        if let Err(resp) = self.shell.enforce_web(&c, &meta_id, &Action::List) {
            return resp;
        }
        let videos = self
            .shell
            .core
            .ids_with_prefix(&format!("collections/{collection}/"));
        Response::ok().with_body(videos.join("\n"))
    }
}

impl WebApp for WebVideos {
    fn authority(&self) -> &str {
        self.shell.core.authority()
    }

    fn handle(&self, net: &dyn Transport, req: &Request) -> Response {
        self.shell.serve(self, Self::ROUTES, net, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucam_webenv::identity::IdentityProvider;
    use ucam_webenv::{Method, SimNet, Status};

    fn setup() -> (SimNet, Arc<WebVideos>, String) {
        let net = SimNet::new();
        let videos = WebVideos::new("webvideos.example", net.clock().clone());
        let idp = IdentityProvider::new("idp.example", net.clock().clone());
        idp.register_user("bob", "pw");
        videos.shell().set_identity_verifier(idp.verifier());
        net.register(videos.clone());
        let token = idp.login("bob", "pw").unwrap().token;
        (net, videos, token)
    }

    fn upload(
        net: &dyn Transport,
        token: &str,
        collection: &str,
        id: &str,
        video: &Video,
    ) -> Response {
        net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webvideos.example/videos")
                .with_param("collection", collection)
                .with_param("id", id)
                .with_param("subject_token", token)
                .with_body(base64url_encode(&video.to_bytes())),
        )
    }

    #[test]
    fn upload_watch_roundtrip() {
        let (net, _, token) = setup();
        let video = Video::test_pattern(4, 4, 6);
        assert_eq!(
            upload(&net, &token, "trips", "rome", &video).status,
            Status::Created
        );
        let watch = net.dispatch(
            "browser:bob",
            Request::new(Method::Get, "https://webvideos.example/videos/trips/rome")
                .with_param("subject_token", &token),
        );
        assert_eq!(watch.status, Status::Ok);
        let bytes = base64url_decode(&watch.body).unwrap();
        assert_eq!(Video::from_bytes(&bytes).unwrap(), video);
    }

    #[test]
    fn garbage_upload_rejected() {
        let (net, _, token) = setup();
        let resp = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webvideos.example/videos")
                .with_param("collection", "c")
                .with_param("id", "v")
                .with_param("subject_token", &token)
                .with_body("bm90LXZpZGVv"),
        );
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn clip_and_thumbnail() {
        let (net, videos, token) = setup();
        upload(
            &net,
            &token,
            "trips",
            "rome",
            &Video::test_pattern(4, 4, 10),
        );
        let clip = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Post,
                "https://webvideos.example/videos/trips/rome/clip",
            )
            .with_param("subject_token", &token)
            .with_param("start", "2")
            .with_param("end", "5"),
        );
        assert_eq!(clip.status, Status::Ok);
        assert!(clip.body.contains("3 frames"), "{}", clip.body);
        let stored = videos
            .shell()
            .core
            .resource("collections/trips/rome")
            .unwrap();
        assert_eq!(Video::from_bytes(&stored.data).unwrap().frame_count(), 3);

        let thumb = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Get,
                "https://webvideos.example/videos/trips/rome/thumbnail",
            )
            .with_param("subject_token", &token)
            .with_param("w", "2")
            .with_param("h", "2"),
        );
        assert_eq!(thumb.status, Status::Ok);
        let image_bytes = base64url_decode(&thumb.body).unwrap();
        let image = crate::image::Image::from_bytes(&image_bytes).unwrap();
        assert_eq!((image.width(), image.height()), (2, 2));
    }

    #[test]
    fn append_concatenates() {
        let (net, videos, token) = setup();
        upload(&net, &token, "trips", "a", &Video::test_pattern(4, 4, 3));
        upload(&net, &token, "trips", "b", &Video::test_pattern(4, 4, 2));
        let resp = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Post,
                "https://webvideos.example/videos/trips/a/append",
            )
            .with_param("subject_token", &token)
            .with_param("from", "trips/b"),
        );
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        let stored = videos.shell().core.resource("collections/trips/a").unwrap();
        assert_eq!(Video::from_bytes(&stored.data).unwrap().frame_count(), 5);
    }

    #[test]
    fn collections_create_and_list() {
        let (net, _, token) = setup();
        let created = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://webvideos.example/collections")
                .with_param("name", "trips")
                .with_param("subject_token", &token),
        );
        assert_eq!(created.status, Status::Created);
        upload(&net, &token, "trips", "rome", &Video::test_pattern(2, 2, 1));
        let list = net.dispatch(
            "browser:bob",
            Request::new(Method::Get, "https://webvideos.example/collection/trips")
                .with_param("subject_token", &token),
        );
        assert_eq!(list.body, "collections/trips/rome");
    }

    #[test]
    fn strangers_blocked() {
        let (net, _, token) = setup();
        upload(&net, &token, "trips", "rome", &Video::test_pattern(2, 2, 1));
        let watch = net.dispatch(
            "browser:anon",
            Request::new(Method::Get, "https://webvideos.example/videos/trips/rome"),
        );
        assert_eq!(watch.status, Status::Forbidden);
        let clip = net.dispatch(
            "browser:anon",
            Request::new(
                Method::Post,
                "https://webvideos.example/videos/trips/rome/clip",
            )
            .with_param("start", "0")
            .with_param("end", "1"),
        );
        assert_eq!(clip.status, Status::Forbidden);
    }

    #[test]
    fn bad_edit_parameters() {
        let (net, _, token) = setup();
        upload(&net, &token, "trips", "rome", &Video::test_pattern(2, 2, 4));
        let bad_clip = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Post,
                "https://webvideos.example/videos/trips/rome/clip",
            )
            .with_param("subject_token", &token)
            .with_param("start", "3")
            .with_param("end", "1"),
        );
        assert_eq!(bad_clip.status, Status::BadRequest);
        let unknown = net.dispatch(
            "browser:bob",
            Request::new(
                Method::Post,
                "https://webvideos.example/videos/trips/rome/explode",
            )
            .with_param("subject_token", &token),
        );
        assert_eq!(unknown.status, Status::BadRequest);
    }

    #[test]
    fn every_video_route_answers_each_caller_as_pinned() {
        use crate::shell::route_matrix::{check, pin};
        let video = base64url_encode(&Video::test_pattern(2, 2, 2).to_bytes());
        // Columns: anonymous, another user, the owner, a host registrant,
        // the delegated host, a forged credential.
        let expected = [
            pin(
                "/collections",
                Post,
                "/collections?name=new",
                [401, 201, 201, 401, 401, 401],
            ),
            pin(
                "/videos",
                Post,
                "/videos?collection=new&id=v",
                [401, 201, 201, 401, 401, 401],
            )
            .with_body(&video),
            pin(
                "/videos/",
                Get,
                "/videos/trips/clip",
                [302, 302, 200, 302, 302, 302],
            ),
            pin(
                "/collection/",
                Get,
                "/collection/trips",
                [302, 302, 200, 302, 302, 302],
            ),
        ];
        check(WebVideos::ROUTES, &expected, |rig| &*rig.videos);
    }
}
